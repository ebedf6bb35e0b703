package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestChunkedSnapshot: with SnapshotBytes set, one Snapshot over a durable
// prefix several chunks long writes one chain element per chunk, each
// covering at most SnapshotBytes of log or a single record larger than
// that, and trims the log once; a reopen recovers the exact state.
func TestChunkedSnapshot(t *testing.T) {
	const chunk = 2 << 10
	for _, tc := range []struct {
		name string
		big  int // payload length of one record, 0 for none
	}{
		{"small records", 0},
		{"one record larger than a chunk", 3 * chunk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), GroupCommit: time.Hour, SnapshotBytes: chunk}
			l := mustOpen(t, opts)
			live := map[uint64][]byte{}
			for k := uint64(1); k <= 240; k++ {
				v := bytes.Repeat([]byte{byte(k)}, int(k%29))
				if tc.big > 0 && k == 120 {
					v = bytes.Repeat([]byte{0xb1}, tc.big)
				}
				l.AppendInserts([]uint64{k}, [][]byte{v})
				live[k] = v
				if k%4 == 0 {
					l.AppendExtracts([]uint64{k - 3})
					delete(live, k-3)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			// Where each record of the prefix ends, by LSN.
			image, err := os.ReadFile(filepath.Join(opts.Dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			if len(image) < 4*chunk {
				t.Fatalf("prefix of %d bytes is under four chunks", len(image))
			}
			end := map[uint64]int64{0: 0}
			d := NewDecoder(image)
			for {
				rec, err := d.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("decoding the prefix: %v", err)
				}
				end[rec.LSN] = d.Offset()
			}

			if err := l.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			st := l.Stats()
			if st.Snapshots < 4 || st.Trims != 1 {
				t.Fatalf("one snapshot of %d bytes in %d-byte chunks wrote %d chain elements and %d trims, want >= 4 and 1",
					len(image), chunk, st.Snapshots, st.Trims)
			}
			if st.Rebases != 0 {
				t.Fatalf("%d rebases: the test reads the chain's deltas, size it under rebaseEvery elements", st.Rebases)
			}
			prev := uint64(0)
			for seq := 0; seq < int(st.Snapshots); seq++ {
				magic, body, err := readSnapFile(filepath.Join(opts.Dir, deltaName(seq)))
				if err != nil || magic != deltaMagic {
					t.Fatalf("delta %d: magic %x, %v", seq, magic, err)
				}
				from, to, _, err := decodeDelta(body)
				if err != nil || from != prev {
					t.Fatalf("delta %d chains from %d (%v), want %d", seq, from, err, prev)
				}
				covered := end[to] - end[from]
				if covered > chunk && to-from != 1 {
					t.Fatalf("delta %d covers %d bytes of log in %d records, more than a %d-byte chunk", seq, covered, to-from, chunk)
				}
				prev = to
			}
			if prev != st.LastLSN {
				t.Fatalf("chain ends at LSN %d, log at %d", prev, st.LastLSN)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			rs, err := Recover(opts.Dir)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if rs.Records != 0 || rs.Deltas != int(st.Snapshots) || len(rs.Keys) != len(live) {
				t.Fatalf("recovered %d keys from %d deltas and %d log records, want %d from %d and 0",
					len(rs.Keys), rs.Deltas, rs.Records, len(live), st.Snapshots)
			}
			for i, k := range rs.Keys {
				if !bytes.Equal(rs.Vals[i], live[k]) {
					t.Fatalf("key %d recovered %d payload bytes, want %d", k, len(rs.Vals[i]), len(live[k]))
				}
			}
		})
	}
}
