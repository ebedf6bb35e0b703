package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
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

// TestAppendDuringTrimCopy: a trim copies the durable part of the log it
// keeps without holding a lock. While an automatic cycle's trim is parked
// inside the temp file's write(2), an append and a Sync from another
// goroutine return; the trim then carries the record they made into the
// new log.
func TestAppendDuringTrimCopy(t *testing.T) {
	fs := &blockingFS{name: walTmpName, entered: make(chan struct{}), release: make(chan struct{})}
	opts := Options{Dir: t.TempDir(), GroupCommit: time.Hour, SnapshotBytes: 256, FS: fs}
	l := mustOpen(t, opts)
	for k := uint64(1); k <= 24; k++ {
		l.AppendInserts([]uint64{k}, [][]byte{[]byte("value")})
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.block.Store(true)
	cycled := make(chan error)
	go func() { cycled <- l.snapshot(true) }()
	select {
	case <-fs.entered:
	case err := <-cycled:
		t.Fatalf("the cycle (%v) copied no remainder into the new log", err)
	}

	synced := make(chan error)
	go func() {
		l.AppendInserts([]uint64{100}, [][]byte{[]byte("during")})
		synced <- l.Sync()
	}()
	select {
	case err := <-synced:
		if err != nil {
			t.Fatalf("Sync during the trim's copy: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an append and a Sync waited on a trim's copy")
	}
	fs.block.Store(false)
	fs.release <- struct{}{}
	if err := <-cycled; err != nil {
		t.Fatalf("automatic cycle: %v", err)
	}
	s := l.Stats()
	if s.Snapshots == 0 || s.Trims != 1 || s.DurableLSN != s.LastLSN {
		t.Fatalf("after the cycle: %d elements, %d trims, durable LSN %d of %d; want some, 1, all", s.Snapshots, s.Trims, s.DurableLSN, s.LastLSN)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := recoverDir(t, opts.Dir)
	if st.Live() != 25 || st.Records == 0 || st.Keys[24] != 100 || string(st.Vals[24]) != "during" {
		t.Fatalf("recovered %d keys (%d from the log), last %d %q; want 25, the remainder from the log, 100 \"during\"",
			st.Live(), st.Records, st.Keys[st.Live()-1], st.Vals[st.Live()-1])
	}
}

// TestWholeChunkCycle: an automatic cycle covers whole SnapshotBytes
// chunks only (each up to its last complete record) and leaves the
// shorter remainder in the log, while an explicit Snapshot still covers
// everything.
func TestWholeChunkCycle(t *testing.T) {
	const chunk = 1 << 10
	opts := Options{Dir: t.TempDir(), GroupCommit: time.Hour, SnapshotBytes: chunk}
	l := mustOpen(t, opts)
	for k := uint64(1); k <= 100; k++ {
		l.AppendInserts([]uint64{k}, [][]byte{bytes.Repeat([]byte{byte(k)}, 20)})
	}
	if err := l.snapshot(true); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	l.mu.Lock()
	left := l.written
	l.mu.Unlock()
	if st.Snapshots < 2 || left == 0 || left >= chunk {
		t.Fatalf("a cycle over %d bytes wrote %d elements and left %d bytes, want several and under %d", st.AppendedBytes, st.Snapshots, left, chunk)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	left = l.written
	l.mu.Unlock()
	if s := l.Stats(); s.Snapshots != st.Snapshots+1 || left != 0 {
		t.Fatalf("Snapshot after the cycle: %d elements, %d bytes left; want one more and 0", s.Snapshots-st.Snapshots, left)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if rs := recoverDir(t, opts.Dir); rs.Live() != 100 || rs.Deltas != int(st.Snapshots)+1 || rs.Records != 0 {
		t.Fatalf("recovered %d keys from %d deltas and %d records, want 100 from %d and none", rs.Live(), rs.Deltas, rs.Records, st.Snapshots+1)
	}
}

// TestSnapshotCycleAllocs: with the GC off, one steady automatic cycle
// that writes a delta allocates under 256 KiB, and one that rebases a
// chain of 1 MiB chunks over a base of several MiB under 1 MiB: chain
// files are written and read through fixed buffers the log keeps, not
// built or loaded whole.
func TestSnapshotCycleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("writes tens of MiB of log")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const chunk, batch, valueLen = 1 << 20, 64, 64
	l := mustOpen(t, Options{Dir: t.TempDir(), GroupCommit: time.Hour, SnapshotBytes: chunk})
	defer l.Close()
	keys := make([]uint64, batch)
	vals := make([][]byte, batch)
	for i := range vals {
		vals[i] = make([]byte, valueLen)
	}
	next, oldest := uint64(0), uint64(0)
	// cycle appends a chunk of log — insert batches and, once the live
	// set holds a few chunks, as many extract batches of the oldest keys
	// — and runs one automatic cycle, returning the bytes it allocated.
	cycle := func() uint64 {
		t.Helper()
		for l.Stats().AppendedBytes < int64(l.Stats().Snapshots+1)*chunk {
			for i := range keys {
				keys[i] = next * 0x9e3779b97f4a7c15 >> 16
				vals[i][0] = byte(next)
				next++
			}
			l.AppendInserts(keys, vals)
			if next-oldest > 40_000 {
				for i := range keys {
					keys[i] = oldest * 0x9e3779b97f4a7c15 >> 16
					oldest++
				}
				l.AppendExtracts(keys)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := l.snapshot(true); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// Warm up through a first rebase, so every buffer the log keeps exists.
	for l.Stats().Rebases == 0 {
		cycle()
	}
	var delta, rebase uint64
	for l.Stats().Rebases < 2 {
		n, wasRebase := cycle(), l.deltaCount == 0
		if wasRebase {
			rebase = n
		} else {
			delta = max(delta, n)
		}
	}
	st := l.Stats()
	t.Logf("%d cycles: %d deltas, %d rebases, %.1f MiB of chain written; delta cycle %d KiB at most, rebase %d KiB",
		st.Trims, st.DeltaSnapshots, st.Rebases, float64(st.SnapshotBytesWritten)/(1<<20), delta>>10, rebase>>10)
	if delta >= 256<<10 {
		t.Errorf("a delta cycle allocated %d KiB, want under 256 KiB", delta>>10)
	}
	if rebase >= 1<<20 {
		t.Errorf("a rebase cycle allocated %d KiB, want under 1024 KiB", rebase>>10)
	}
}

// TestChainEntryLargerThanReadBuffer: a key whose chain file entry is
// larger than the 64 KiB read buffer (one 200 KiB payload; 3000
// instances of one key) grows the buffer; a rebase and Recover read it
// byte-exact.
func TestChainEntryLargerThanReadBuffer(t *testing.T) {
	opts := Options{Dir: t.TempDir(), GroupCommit: time.Hour}
	l := mustOpen(t, opts)
	big := bytes.Repeat([]byte("0123456789abcdef"), 200<<10/16)
	l.AppendInserts([]uint64{7}, [][]byte{big})
	for i := 0; i < 3000; i++ {
		l.AppendInserts([]uint64{8}, [][]byte{bytes.Repeat([]byte{byte(i)}, 64)})
	}
	for i := 0; i <= rebaseEvery; i++ {
		l.AppendInserts([]uint64{100 + uint64(i)}, nil)
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Rebases != 1 {
		t.Fatalf("%d rebases, want the chain's first delta folded into a base", s.Rebases)
	}
	st := recoverDir(t, opts.Dir)
	if st.Live() != 3001+rebaseEvery+1 || st.Keys[0] != 7 || !bytes.Equal(st.Vals[0], big) {
		t.Fatalf("recovered %d keys, first %d with %d payload bytes; want %d, 7 with %d", st.Live(), st.Keys[0], len(st.Vals[0]), 3001+rebaseEvery+1, len(big))
	}
	for i := 0; i < 3000; i++ {
		if v := st.Vals[1+i]; st.Keys[1+i] != 8 || len(v) != 64 || v[0] != byte(i) {
			t.Fatalf("instance %d of key 8 recovered as key %d, %d bytes", i, st.Keys[1+i], len(v))
		}
	}
}

// rebaseRuns opens dir's chain and the log after it as the runs a rebase
// folds, and returns them with the log's last LSN.
func rebaseRuns(t *testing.T, dir string) ([]*run, uint64) {
	t.Helper()
	ch, err := loadChain(dir, nil)
	t.Cleanup(func() { ch.close() })
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	ev, lsn, _, torn, err := scanLog(img, ch.lsn, nil)
	if err != nil || torn >= 0 || lsn <= ch.lsn {
		t.Fatalf("log after the chain: last LSN %d over chain LSN %d, torn at %d, %v", lsn, ch.lsn, torn, err)
	}
	ev, _ = sortEvents(ev, nil)
	return append(ch.runs, &run{name: walName, img: img, ev: ev}), lsn
}

// encodeState writes st as a base at watermark lsn: v1 when no instance
// carries a payload (Vals nil), else v2, one entry per run of equal keys.
// It is the reference a base that encodeBase folds is compared against.
func encodeState(w *snapWriter, lsn uint64, st *State) error {
	magic, keys := snapMagic, 0
	if st.Vals != nil {
		magic = snapMagicV2
	}
	for i, k := range st.Keys {
		if i == 0 || k != st.Keys[i-1] {
			keys++
		}
	}
	w.begin(magic)
	w.u64(lsn)
	w.u64(uint64(keys))
	for i := 0; i < len(st.Keys); {
		j := i + 1
		for j < len(st.Keys) && st.Keys[j] == st.Keys[i] {
			j++
		}
		w.u64(st.Keys[i])
		w.u64(uint64(j - i))
		if st.Vals != nil {
			for _, v := range st.Vals[i:j] {
				w.payload(v)
			}
		}
		i = j
	}
	return w.end()
}

// TestEncodeBaseOnePass: the one-pass base writer makes, byte for byte,
// the recovered State written as a base (encodeState), on chains that
// take each of its ways: a key count patched in the buffer or over a
// flushed header by a seek, a restart after a legacy file out of key
// order, and a restart in the other format when a payload survives a
// key-only guess or none survives a valued one. Each chain is a base and
// a delta, the rebaseEvery+2 snapshots of history, followed by the log
// window of window.
func TestEncodeBaseOnePass(t *testing.T) {
	keyOnly := func(l *Log, i uint64) {
		l.AppendInserts([]uint64{i, i + 1, 7}, nil)
	}
	valued := func(l *Log, i uint64) {
		l.AppendInserts([]uint64{i, i + 1, 7}, [][]byte{[]byte("payload"), nil, {}})
	}
	for _, tc := range []struct {
		name    string
		history func(l *Log, i uint64)
		window  func(l *Log)
		reverse bool // the chain files out of key order
		magic   uint64
		merges  int64 // begun by the one-pass writer
		seeks   int   // of its file: the patch, and a restart's rewind
	}{
		{"key-only", keyOnly, func(l *Log) {
			l.AppendInserts([]uint64{3, 300}, nil)
			l.AppendExtracts([]uint64{7})
		}, false, snapMagic, 1, 0},
		{"valued", valued, func(l *Log) {
			l.AppendInserts([]uint64{3, 300}, [][]byte{[]byte("w"), nil})
			l.AppendExtracts([]uint64{7})
		}, false, snapMagicV2, 1, 0},
		{"over the write buffer", valued, func(l *Log) {
			keys := make([]uint64, 5000)
			for i := range keys {
				keys[i] = 1000 + uint64(i)*3
			}
			l.AppendInserts(keys, slices.Repeat([][]byte{[]byte("sixteen bytes..!")}, len(keys)))
		}, false, snapMagicV2, 1, 1},
		{"key-only over the write buffer", keyOnly, func(l *Log) {
			keys := make([]uint64, 5000)
			for i := range keys {
				keys[i] = 1000 + uint64(i)*3
			}
			l.AppendInserts(keys, nil)
		}, false, snapMagic, 1, 1},
		// One restart per file found out of key order, the base and then
		// the delta.
		{"legacy key order", valued, func(l *Log) {
			l.AppendInserts([]uint64{3}, [][]byte{[]byte("w")})
		}, true, snapMagicV2, 3, 2},
		{"payloads all die", func(l *Log, i uint64) {
			l.AppendInserts([]uint64{i}, [][]byte{[]byte("payload")})
			l.AppendInserts([]uint64{100 + i}, nil)
		}, func(l *Log) {
			// Keys 0..9 held every payload; 100..109 none.
			l.AppendExtracts([]uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
			l.AppendInserts([]uint64{5000}, nil)
		}, false, snapMagic, 2, 1},
		{"payloads arrive on a key-only base", keyOnly, func(l *Log) {
			l.AppendInserts([]uint64{3}, [][]byte{[]byte("w")})
		}, false, snapMagicV2, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, Options{Dir: dir, GroupCommit: time.Hour})
			for i := uint64(0); i < rebaseEvery+2; i++ {
				tc.history(l, i)
				if err := l.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			tc.window(l)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if s := l.Stats(); s.Rebases != 1 {
				t.Fatalf("%d rebases, want a base and a delta", s.Rebases)
			}
			if tc.reverse && reverseChainFiles(t, dir) < 2 {
				t.Fatal("the base and the delta are not out of key order")
			}
			runs, lsn := rebaseRuns(t, dir)
			var one, ref memFile
			before := merges.Load()
			if err := encodeBase(&snapWriter{dst: &one}, lsn, runs); err != nil {
				t.Fatal(err)
			}
			merged := merges.Load() - before
			var st State
			if err := foldState(&st, runs); err != nil {
				t.Fatal(err)
			}
			if err := encodeState(&snapWriter{dst: &ref}, lsn, &st); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(one.b, ref.b) {
				t.Fatalf("one pass wrote %d bytes, the recovered State %d, and they differ", len(one.b), len(ref.b))
			}
			if magic := binary.LittleEndian.Uint64(one.b); magic != tc.magic || merged != tc.merges || one.seeks != tc.seeks {
				t.Fatalf("magic %x, %d merges, %d seeks over %d bytes; want %x, %d, %d",
					magic, merged, one.seeks, len(one.b), tc.magic, tc.merges, tc.seeks)
			}
			if tc.seeks == 1 && !tc.reverse && tc.merges == 1 && len(one.b) <= writeBufSize {
				t.Fatalf("a %d-byte base fits the write buffer: nothing to seek back over", len(one.b))
			}
		})
	}
}

// TestRebaseMergesOnce: in a steady key-only log and a steady valued one,
// every rebase, the first included, merges its chain once and a delta
// never does, so neither guesses its base's format wrong.
func TestRebaseMergesOnce(t *testing.T) {
	for _, valued := range []bool{false, true} {
		l := mustOpen(t, Options{Dir: t.TempDir(), GroupCommit: time.Hour})
		for i := uint64(0); i < 3*rebaseEvery+3; i++ {
			keys := []uint64{i * 31 % 97, i, 1000 + i}
			var vals [][]byte
			if valued {
				vals = [][]byte{[]byte("v"), {byte(i)}, nil}
			}
			l.AppendInserts(keys, vals)
			if i > 2 {
				l.AppendExtracts([]uint64{i - 2})
			}
			rebases, before := l.Stats().Rebases, merges.Load()
			if err := l.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if got, want := merges.Load()-before, l.Stats().Rebases-rebases; got != int64(want) {
				t.Fatalf("valued %v, snapshot %d: %d merges for %d rebases", valued, i, got, want)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if r := l.Stats().Rebases; r != 3 {
			t.Fatalf("valued %v: %d rebases, want 3", valued, r)
		}
	}
}

// TestRecoverMergesOnce: Recover and Open each fold a chain of a base,
// deltas and a log tail in one merge, on a key-only directory and on a
// valued one.
func TestRecoverMergesOnce(t *testing.T) {
	for _, valued := range []bool{false, true} {
		dir := t.TempDir()
		l := mustOpen(t, Options{Dir: dir, GroupCommit: time.Hour})
		for i := uint64(0); i < rebaseEvery+4; i++ {
			var vals [][]byte
			if valued {
				vals = [][]byte{[]byte("v"), nil}
			}
			l.AppendInserts([]uint64{i * 31 % 97, 1000 + i}, vals)
			if i > 0 {
				l.AppendExtracts([]uint64{999 + i})
			}
			if i < rebaseEvery+3 {
				if err := l.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		before := merges.Load()
		st := recoverDir(t, dir)
		if got := merges.Load() - before; got != 1 || st.SnapshotLSN == 0 || st.Deltas != 2 || st.Records == 0 {
			t.Fatalf("valued %v: Recover merged %d times over %d deltas at LSN %d and %d records; want once over a base, 2 deltas and a log tail",
				valued, got, st.Deltas, st.SnapshotLSN, st.Records)
		}
		if (st.Vals != nil) != valued {
			t.Fatalf("valued %v: recovered Vals %q", valued, st.Vals)
		}
		before = merges.Load()
		l, ost, err := Open(Options{Dir: dir, GroupCommit: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if got := merges.Load() - before; got != 1 || !slices.Equal(ost.Keys, st.Keys) {
			t.Fatalf("valued %v: Open merged %d times and recovered %v; want once and %v", valued, got, ost.Keys, st.Keys)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
