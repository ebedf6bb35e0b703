package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// wrappedV1Body is a v1 base body whose key count n = 2^60 makes 16*n
// wrap to 0 in 64-bit arithmetic: 16 header bytes, no entries.
func wrappedV1Body() []byte {
	b := binary.LittleEndian.AppendUint64(nil, 1) // watermark LSN
	return binary.LittleEndian.AppendUint64(b, 1<<60)
}

// snapFileBytes frames body as a chain file: magic, body, CRC.
func snapFileBytes(magic uint64, body []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, magic)
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(body, castagnoli))
}

// TestSnapshotCountWrapIsCorrupt: a CRC-valid v1 base claiming 2^60 keys
// in a 16-byte body once passed the length check (16*n wrapped to 0)
// and panicked recovery indexing past the body. It is corruption.
func TestSnapshotCountWrapIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName), snapFileBytes(snapMagic, wrappedV1Body()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover = %v, want ErrCorrupt", err)
	}
	if _, _, err := Open(Options{Dir: dir, GroupCommit: time.Millisecond}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// hugeCountV1Body is a well-formed v1 base body whose two keys claim 2^62
// instances each: every count is valid on its own, and their sum wraps
// int64.
func hugeCountV1Body() []byte {
	b := binary.LittleEndian.AppendUint64(nil, 1) // watermark LSN
	b = binary.LittleEndian.AppendUint64(b, 2)    // distinct keys
	for k := uint64(1); k <= 2; k++ {
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint64(b, 1<<62)
	}
	return b
}

// TestSnapshotCountOverflowIsCorrupt: a CRC-valid v1 base whose per-key
// counts sum past what a slice can hold once panicked Recover sizing Keys
// (makeslice: cap out of range). It is corruption.
func TestSnapshotCountOverflowIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName), snapFileBytes(snapMagic, hugeCountV1Body()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover = %v, want ErrCorrupt", err)
	}
	if _, _, err := Open(Options{Dir: dir, GroupCommit: time.Millisecond}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// TestStaleV1CountIsCorrupt: a v1 base larger than a read buffer whose
// first count was raised after its CRC was taken is corruption, found
// before the count is expanded: the CRC mismatch is at the file's end,
// past the buffer holding that count, so Recover checks a v1 base's CRC
// before it folds.
func TestStaleV1CountIsCorrupt(t *testing.T) {
	const keys, raised = readBufSize / 8, 1 << 24
	body := binary.LittleEndian.AppendUint64(nil, 1) // watermark LSN
	body = binary.LittleEndian.AppendUint64(body, keys)
	for k := uint64(1); k <= keys; k++ {
		body = binary.LittleEndian.AppendUint64(body, k)
		body = binary.LittleEndian.AppendUint64(body, 1)
	}
	file := snapFileBytes(snapMagic, body)
	binary.LittleEndian.PutUint64(file[8+16+8:], raised) // key 1's count; the CRC stays
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName), file, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, rerr := Recover(dir)
	_, _, oerr := Open(Options{Dir: dir, GroupCommit: time.Millisecond})
	runtime.ReadMemStats(&after)
	if !errors.Is(rerr, ErrCorrupt) || !errors.Is(oerr, ErrCorrupt) {
		t.Fatalf("Recover = %v, Open = %v; want ErrCorrupt", rerr, oerr)
	}
	// The raised count would expand into raised keys of 8 bytes each.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > raised*8/16 {
		t.Fatalf("Recover and Open allocated %d bytes; a stale count expands into %d", alloc, raised*8)
	}
}

// TestExtractedPayloadsLeaveNoVals: State.Vals is nil unless a live
// instance carries a payload. A key whose valued instance was extracted,
// leaving a key-only one, recovers key-only — also after a rebase has
// written the key into a valued base — so a directory whose payloads are
// all gone opens without a codec.
func TestExtractedPayloadsLeaveNoVals(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, GroupCommit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	l.AppendInserts([]uint64{5}, [][]byte{[]byte("gone")})
	l.AppendInserts([]uint64{5, 6}, nil)
	l.AppendExtracts([]uint64{5})
	check := func(when string) {
		t.Helper()
		st, err := Recover(dir)
		if err != nil || !reflect.DeepEqual(st.Keys, []uint64{5, 6}) || st.Vals != nil {
			t.Fatalf("%s: Recover = (%+v, %v), want keys [5 6] and nil Vals", when, st, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	check("from the log")
	for i := 0; i < rebaseEvery; i++ {
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check("from a rebased chain")
}
