package wal

import (
	"hash/crc32"
	"testing"

	"repro/internal/xrand"
)

// TestCRC32CCombine: the CRC-32C of a‖b combined from the CRCs of a and
// b equals the CRC of a‖b, at random split points, empty halves included.
func TestCRC32CCombine(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{0, 1, 7, 64, 1000, 70_000} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		want := crc32.Checksum(b, castagnoli)
		for _, at := range []int{0, n, int(rng.Uint64n(uint64(n) + 1)), int(rng.Uint64n(uint64(n) + 1))} {
			a, c := crc32.Checksum(b[:at], castagnoli), crc32.Checksum(b[at:], castagnoli)
			if got := crc32cCombine(a, c, int64(n-at)); got != want {
				t.Fatalf("%d bytes split at %d: combined %08x, want %08x", n, at, got, want)
			}
		}
	}
}
