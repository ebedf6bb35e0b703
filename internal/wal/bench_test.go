package wal

import (
	"os"
	"path/filepath"
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

// BenchmarkRebase times one rebase: Snapshot over a chain of a 64 Ki-key
// valued base and rebaseEvery deltas, plus a one-batch log window, which
// folds all of it into a new base (and trims the log). Each iteration
// starts from a fresh copy of the chain, made outside the timer.
func BenchmarkRebase(b *testing.B) {
	const keys, batch = 64 << 10, 64
	tmpl := Options{Dir: b.TempDir(), GroupCommit: time.Hour}
	l, _, err := Open(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	ks := make([]uint64, batch)
	vs := make([][]byte, batch)
	fill := func(first uint64) {
		for i := range ks {
			k := first + uint64(i)
			ks[i], vs[i] = k, []byte{byte(k), byte(k >> 8), byte(k >> 16), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
		}
	}
	// phase extracts and re-inserts the batch at first, which is live.
	phase := func(first uint64) {
		fill(first % keys)
		l.AppendExtracts(ks)
		l.AppendInserts(ks, vs)
	}
	for k := uint64(0); k < keys; k += batch {
		fill(k)
		l.AppendInserts(ks, vs)
	}
	// rebaseEvery deltas, the rebase into the base, rebaseEvery more.
	for p := 0; p < 2*rebaseEvery+1; p++ {
		phase(uint64(p) * 7 * batch)
		if err := l.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	if s := l.Stats(); s.Rebases != 1 || s.DeltaSnapshots != 2*rebaseEvery {
		b.Fatalf("built %d rebases and %d deltas, want 1 and %d", s.Rebases, s.DeltaSnapshots, 2*rebaseEvery)
	}
	files, err := os.ReadDir(tmpl.Dir)
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts := Options{Dir: b.TempDir(), GroupCommit: time.Hour}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(tmpl.Dir, f.Name()))
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(opts.Dir, f.Name()), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		var st *State
		if l, st, err = Open(opts); err != nil || st.Live() != keys {
			b.Fatalf("Open: %v", err)
		}
		phase(uint64(i) * 61 * batch) // the window, appended to l
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := l.Snapshot(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if s := l.Stats(); s.Rebases != 1 {
			b.Fatalf("the snapshot was not a rebase: %+v", s)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
