package wal

import (
	"testing"
	"time"
)

// BenchmarkReopen times a restart: Open on a valued directory holding a
// base, five deltas and a log tail, which recovers the state and opens
// the log for appending. The directory is built outside the timer; the
// 1 Mi-key size is skipped under -short.
func BenchmarkReopen(b *testing.B) {
	for _, sz := range []struct {
		name string
		keys int
	}{{"64Ki", 64 << 10}, {"1Mi", 1 << 20}} {
		b.Run(sz.name, func(b *testing.B) {
			if sz.keys > 64<<10 && testing.Short() {
				b.Skip("1 Mi-key directory skipped under -short")
			}
			opts := Options{Dir: b.TempDir(), GroupCommit: time.Hour}
			buildReopenDir(b, opts, sz.keys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, st, err := Open(opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if st.Live() != sz.keys {
					b.Fatalf("recovered %d keys, built %d", st.Live(), sz.keys)
				}
				if err := l.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// buildReopenDir fills opts.Dir with n live valued keys over 15 phases
// of 64-key batches and takes a snapshot after each of the first 14:
// rebaseEvery deltas, the rebase into a base, five more deltas, and the
// last phase left in the log as its tail.
func buildReopenDir(b *testing.B, opts Options, n int) {
	l, _, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	const phases, batch = 15, 64
	keys := make([]uint64, batch)
	vals := make([][]byte, batch)
	next := uint64(0)
	for p := 0; p < phases; p++ {
		target := n * (p + 1) / phases
		for int(next) < target {
			m := min(batch, target-int(next))
			for i := 0; i < m; i++ {
				keys[i] = next
				vals[i] = []byte{byte(next), byte(next >> 8), byte(next >> 16), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
				next++
			}
			l.AppendInserts(keys[:m], vals[:m])
		}
		// Extract and re-insert the phase's last batch, so deltas carry
		// drops as well as adds.
		l.AppendExtracts(keys[:batch])
		l.AppendInserts(keys[:batch], vals[:batch])
		if p < phases-1 {
			if err := l.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if st := l.Stats(); st.Rebases != 1 || st.DeltaSnapshots != 13 {
		b.Fatalf("built %d rebases and %d deltas, want 1 and 13", st.Rebases, st.DeltaSnapshots)
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
}
