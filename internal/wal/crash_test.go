package wal_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wal/crashfs"
)

// The tests in this file run a Log under the crash model of package
// crashfs. crashfs implements wal.FS, so it imports wal and can only be
// used from outside the package.

// rebaseEvery is the package's delta count per rebase.
const rebaseEvery = 8

// open opens opts.Dir's log and fails the test on error.
func open(t *testing.T, opts wal.Options) *wal.Log {
	t.Helper()
	l, _, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// crashOptions are the options of a log under fs with no background
// syncs: only an explicit Sync reaches the disk.
func crashOptions(dir string, fs wal.FS) wal.Options {
	return wal.Options{Dir: dir, GroupCommit: time.Hour, FS: fs}
}

// materialize kills the process at fs's crash and releases what l held.
// l.Close reports the crash only if the log has latched it.
func materialize(t *testing.T, fs *crashfs.FS, l *wal.Log) crashfs.Info {
	t.Helper()
	info, err := fs.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	l.Close()
	return info
}

// recoverState recovers dir and fails the test on error.
func recoverState(t *testing.T, dir string) *wal.State {
	t.Helper()
	st, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return st
}

// isPrefix reports whether keys is 1, 2, ..., len(keys): a prefix of the
// order the tests insert in.
func isPrefix(keys []uint64) bool {
	for i, k := range keys {
		if k != uint64(i+1) {
			return false
		}
	}
	return true
}

func TestSyncMakesDurable(t *testing.T) {
	dir := t.TempDir()
	fs := crashfs.New(1, crashfs.LogSync, 0) // crashes only at Materialize
	l := open(t, crashOptions(dir, fs))
	l.AppendInserts([]uint64{11}, nil)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := l.Stats().DurableLSN; got != 1 {
		t.Fatalf("DurableLSN = %d after syncing 1 record, want 1", got)
	}
	l.AppendInserts([]uint64{22}, nil) // never synced
	materialize(t, fs, l)
	if got := l.Stats().DurableLSN; got != 1 {
		t.Fatalf("crash DurableLSN = %d, want 1", got)
	}
	// Key 11 was acked and must survive; 22 never left the process.
	if got := recoverState(t, dir).Keys; !slices.Equal(got, []uint64{11}) {
		t.Fatalf("recovered %v, want [11]", got)
	}
}

func TestCrashMidAppendLeavesTornTail(t *testing.T) {
	dir := t.TempDir()
	fs := crashfs.New(7, crashfs.LogWrite, 100)
	l := open(t, crashOptions(dir, fs))
	l.AppendInserts([]uint64{1}, nil)
	// The flush of key 1's record is the failing write: it lands partway.
	if err := l.Sync(); !errors.Is(err, crashfs.ErrCrashed) {
		t.Fatalf("Sync = %v, want ErrCrashed", err)
	}
	select {
	case <-fs.Crashed():
	default:
		t.Fatal("a failed log write did not crash")
	}
	if err := l.Sync(); !errors.Is(err, crashfs.ErrCrashed) {
		t.Fatalf("Sync after crash = %v, want ErrCrashed", err)
	}
	info := materialize(t, fs, l)
	if info.Cut >= info.WrittenBytes {
		// Mid-append cut must fall strictly inside the record.
		t.Fatalf("mid-append cut %d not inside record (written %d)", info.Cut, info.WrittenBytes)
	}
	if st := recoverState(t, dir); len(st.Keys) != 0 {
		t.Fatalf("unacked key survived a mid-append crash: %v", st.Keys)
	}
}

func TestCrashMidFsyncDoesNotAck(t *testing.T) {
	dir := t.TempDir()
	fs := crashfs.New(3, crashfs.LogSync, 100)
	l := open(t, crashOptions(dir, fs))
	l.AppendInserts([]uint64{1}, nil)
	if err := l.Sync(); !errors.Is(err, crashfs.ErrCrashed) {
		t.Fatalf("Sync with a failing fsync = %v, want ErrCrashed", err)
	}
	if got := l.Stats().DurableLSN; got != 0 {
		t.Fatalf("watermark advanced across a failed fsync: %d", got)
	}
	materialize(t, fs, l)
	recoverState(t, dir)
}

func TestCrashMidSnapshotKeepsOldState(t *testing.T) {
	dir := t.TempDir()
	l := open(t, crashOptions(dir, nil))
	for i := uint64(1); i <= 50; i++ {
		l.AppendInserts([]uint64{i}, nil)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen under a failing snapshot write; the second snapshot dies
	// mid-write and must not damage the first.
	fs := crashfs.New(9, crashfs.SnapWrite, 100)
	l = open(t, crashOptions(dir, fs))
	l.AppendExtracts([]uint64{50})
	if err := l.Snapshot(); !errors.Is(err, crashfs.ErrCrashed) {
		t.Fatalf("Snapshot with a failing write = %v, want ErrCrashed", err)
	}
	materialize(t, fs, l)
	st := recoverState(t, dir)
	// Keys 1..50 were durable (snapshotted); the extract of 50 was never
	// acked, so 50 may be live or extracted — both are conservation-legal.
	if n := len(st.Keys); n != 49 && n != 50 {
		t.Fatalf("recovered %d keys after mid-snapshot crash, want 49 or 50", n)
	}
	if st.Keys[0] != 1 || st.Keys[48] != 49 {
		t.Fatalf("snapshotted keys damaged: %v...", st.Keys[:5])
	}
}

func TestForceCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	fs := crashfs.New(1, crashfs.LogSync, 0)
	l := open(t, crashOptions(dir, fs))
	for i := uint64(1); i <= 8; i++ {
		l.AppendInserts([]uint64{i}, nil)
		if i == 4 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The torn-tail crash: the fsync of the unsynced burst 5..8 fails.
	fs.Arm()
	if err := l.Sync(); !errors.Is(err, crashfs.ErrCrashed) {
		t.Fatalf("Sync with an armed fsync = %v, want ErrCrashed", err)
	}
	info := materialize(t, fs, l)
	st := recoverState(t, dir)
	if len(st.Keys) < 4 {
		t.Fatalf("acked keys 1..4 not all recovered (cut %d): %v", info.Cut, st.Keys)
	}
	if !isPrefix(st.Keys) {
		t.Fatalf("recovered keys not a prefix of the insert order: %v", st.Keys)
	}
}

func TestAppendsDroppedAfterCrash(t *testing.T) {
	dir := t.TempDir()
	fs := crashfs.New(2, crashfs.LogWrite, 0)
	l := open(t, crashOptions(dir, fs))
	l.AppendInserts([]uint64{1}, nil)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Arm()
	l.AppendInserts([]uint64{2}, nil)
	if err := l.Sync(); !errors.Is(err, crashfs.ErrCrashed) { // key 2's write lands partway
		t.Fatalf("Sync with an armed write = %v, want ErrCrashed", err)
	}
	l.AppendInserts([]uint64{3}, nil) // dropped: the log has latched
	if ops := l.Stats().Ops; ops != 2 {
		t.Fatalf("logged %d ops, want 2: the append after the crash must be dropped", ops)
	}
	materialize(t, fs, l)
	if got := recoverState(t, dir).Keys; !slices.Equal(got, []uint64{1}) {
		t.Fatalf("recovered %v, want [1]", got)
	}
}

// TestCrashDuringRebaseKeepsState fails the snapshot write of a rebase
// cycle: whatever the crash leaves behind must recover to the same acked
// state.
func TestCrashDuringRebaseKeepsState(t *testing.T) {
	dir := t.TempDir()
	l := open(t, crashOptions(dir, nil))
	l.AppendInserts([]uint64{1}, [][]byte{[]byte("one")})
	for i := 0; i < rebaseEvery; i++ { // deltas #0..#7
		if i > 0 {
			// Each delta needs a window; this one nets out to nothing.
			l.AppendInserts([]uint64{100}, [][]byte{[]byte("gone")})
			l.AppendExtracts([]uint64{100})
		}
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen under a failing snapshot write; the next snapshot is a
	// rebase (deltaCount == rebaseEvery) and dies mid-write.
	fs := crashfs.New(9, crashfs.SnapWrite, 100)
	l = open(t, crashOptions(dir, fs))
	l.AppendInserts([]uint64{2}, [][]byte{[]byte("two")})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(); !errors.Is(err, crashfs.ErrCrashed) {
		t.Fatalf("rebase with a failing snapshot write = %v, want ErrCrashed", err)
	}
	materialize(t, fs, l)

	st := recoverState(t, dir)
	if !slices.Equal(st.Keys, []uint64{1, 2}) {
		t.Fatalf("recovered keys %v, want [1 2]", st.Keys)
	}
	if string(st.Vals[0]) != "one" || string(st.Vals[1]) != "two" {
		t.Fatalf("acked values lost in mid-rebase crash: %q", st.Vals)
	}
}

// TestFailedDeltaRemovalIsHarmless: the process dies as a rebase starts
// removing the deltas it folded. The new base is installed; the stale
// deltas stay beside it and are skipped, and the untrimmed log's records
// are all covered, so the directory recovers the acked state.
func TestFailedDeltaRemovalIsHarmless(t *testing.T) {
	dir := t.TempDir()
	fs := crashfs.New(5, crashfs.Remove, 0)
	l := open(t, crashOptions(dir, fs))
	for k := uint64(1); k <= rebaseEvery; k++ { // deltas #0..#7
		l.AppendInserts([]uint64{k}, [][]byte{{byte(k)}})
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	l.AppendInserts([]uint64{100}, [][]byte{[]byte("rebased")})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Arm()
	if err := l.Snapshot(); !errors.Is(err, crashfs.ErrCrashed) {
		t.Fatalf("rebase with a failing remove = %v, want ErrCrashed from the trim after it", err)
	}
	if s := l.Stats(); s.Rebases != 1 {
		t.Fatalf("%d rebases installed, want 1 before the failed remove", s.Rebases)
	}
	materialize(t, fs, l)

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "queue.snap.d") {
			stale++
		}
	}
	st := recoverState(t, dir)
	if stale != rebaseEvery || st.Deltas != 0 {
		t.Fatalf("%d delta files left and %d recovered from, want %d left and none live", stale, st.Deltas, rebaseEvery)
	}
	if !slices.Equal(st.Keys, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 100}) || string(st.Vals[8]) != "rebased" {
		t.Fatalf("recovered %v %q", st.Keys, st.Vals)
	}
}

// TestCrashBetweenChunkElements fails a snapshot temp write or a
// directory fsync partway through a snapshot that writes one chain
// element per SnapshotBytes chunk: the elements installed before the
// crash and the untrimmed log must recover every acked record,
// byte-exact.
func TestCrashBetweenChunkElements(t *testing.T) {
	between := 0
	for seed := uint64(1); seed <= 12; seed++ {
		for _, call := range []crashfs.Call{crashfs.SnapWrite, crashfs.DirSync} {
			dir := t.TempDir()
			fs := crashfs.New(seed, call, 25)
			opts := crashOptions(dir, fs)
			opts.SnapshotBytes = 512
			l := open(t, opts)
			acked := map[uint64]string{}
			for k := uint64(1); k <= 160; k++ {
				v := strings.Repeat(string(rune('a'+k%26)), int(k%23))
				l.AppendInserts([]uint64{k}, [][]byte{[]byte(v)})
				acked[k] = v
				if k%4 == 0 {
					l.AppendExtracts([]uint64{k - 3})
					delete(acked, k-3)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			err := l.Snapshot()
			if err != nil && !errors.Is(err, crashfs.ErrCrashed) {
				t.Fatalf("seed %d: Snapshot = %v, want nil or ErrCrashed", seed, err)
			}
			if err != nil && l.Stats().Snapshots > 0 {
				between++
			}
			materialize(t, fs, l)
			st := recoverState(t, dir)
			if len(st.Keys) != len(acked) {
				t.Fatalf("seed %d: recovered %d keys, want the %d acked", seed, len(st.Keys), len(acked))
			}
			for i, k := range st.Keys {
				if v, ok := acked[k]; !ok || string(st.Vals[i]) != v {
					t.Fatalf("seed %d: key %d recovered as %q, acked %q (%v)", seed, k, st.Vals[i], v, ok)
				}
			}
		}
	}
	if between == 0 {
		t.Fatal("no schedule failed a call between two chunk elements")
	}
}

// patchFS is a crashfs.FS that, once armed, arms the crash model when a
// writer seeks back to byte 16 of a snapshot temp file: the next
// SnapWrite is then the key count a one-pass base patches over its
// placeholder.
type patchFS struct {
	*crashfs.FS
	arm     bool
	patches int // seeks that armed the crash model
}

func (fs *patchFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "queue.snap") {
		return f, err
	}
	return patchFile{f, fs}, nil
}

type patchFile struct {
	wal.File
	fs *patchFS
}

func (f patchFile) Seek(off int64, whence int) (int64, error) {
	if f.fs.arm && off == 16 && whence == io.SeekStart {
		f.fs.FS.Arm()
		f.fs.patches++
	}
	return f.File.Seek(off, whence)
}

// TestCrashOnBaseCountPatch: the process dies on the write that puts a
// rebase's key count over its placeholder, the one write that goes back
// into a file already written. The temp file is never renamed, the
// previous base stays as it was, and a reopen recovers every acked key
// and payload from the previous chain and the log.
func TestCrashOnBaseCountPatch(t *testing.T) {
	dir := t.TempDir()
	fs := &patchFS{FS: crashfs.New(3, crashfs.SnapWrite, 0)}
	l := open(t, crashOptions(dir, fs))
	acked := map[uint64]string{}
	insert := func(keys ...uint64) {
		vals := make([][]byte, len(keys))
		for i, k := range keys {
			acked[k] = strconv.FormatUint(k*k, 16)
			vals[i] = []byte(acked[k])
		}
		l.AppendInserts(keys, vals)
	}
	// 6000 keys make a base past the 64 KiB write buffer, so its count is
	// patched by seeking back; the first rebase installs it.
	keys := make([]uint64, 100)
	for k := uint64(1); k <= 6000; k += 100 {
		for i := range keys {
			keys[i] = k + uint64(i)
		}
		insert(keys...)
	}
	for i := uint64(0); i < 2*rebaseEvery+1; i++ {
		insert(10_000 + i)
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Stats(); s.Rebases != 1 || s.DeltaSnapshots != 2*rebaseEvery {
		t.Fatalf("%d rebases and %d deltas, want 1 and %d", s.Rebases, s.DeltaSnapshots, 2*rebaseEvery)
	}
	base, err := os.ReadFile(filepath.Join(dir, "queue.snap"))
	if err != nil || len(base) <= 64<<10 {
		t.Fatalf("the base is %d bytes (%v), want more than the 64 KiB write buffer", len(base), err)
	}

	insert(20_000)
	l.AppendExtracts([]uint64{5})
	delete(acked, 5)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.arm = true
	if err := l.Snapshot(); !errors.Is(err, crashfs.ErrCrashed) || fs.patches != 1 {
		t.Fatalf("rebase crashing on its count patch = %v after %d patches, want ErrCrashed after 1", err, fs.patches)
	}
	materialize(t, fs.FS, l)
	if b, err := os.ReadFile(filepath.Join(dir, "queue.snap")); err != nil || !slices.Equal(b, base) {
		t.Fatalf("the base changed under a rebase that crashed (%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "queue.snap.tmp")); err != nil {
		t.Fatalf("the crashed rebase's temp file: %v, want it left unrenamed", err)
	}

	l, st, err := wal.Open(wal.Options{Dir: dir, GroupCommit: time.Hour})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if st.Deltas != rebaseEvery || len(st.Keys) != len(acked) {
		t.Fatalf("reopen recovered %d keys over %d deltas, want the %d acked over %d", len(st.Keys), st.Deltas, len(acked), rebaseEvery)
	}
	for i, k := range st.Keys {
		if v, ok := acked[k]; !ok || string(st.Vals[i]) != v {
			t.Fatalf("key %d recovered as %q, acked %q (%v)", k, st.Vals[i], v, ok)
		}
	}
}

// TestFailedCallLatches: a failed write and a failed fsync each latch the
// log's error. Every later Sync returns it, appends are dropped, the
// durable watermark stops, Stats and the scrape show it, Close reports
// it, and a reopen recovers the acked prefix — plus, when the write
// landed and only its fsync failed, possibly the unacked record.
func TestFailedCallLatches(t *testing.T) {
	for _, tc := range []struct {
		name    string
		call    crashfs.Call
		maxKeys int
	}{
		{"write", crashfs.LogWrite, 1},
		{"fsync", crashfs.LogSync, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := crashfs.New(4, tc.call, 0)
			l := open(t, crashOptions(dir, fs))
			l.AppendInserts([]uint64{1}, nil)
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if e := l.Stats().Err; e != "" {
				t.Fatalf("a healthy log reports Err %q", e)
			}
			fs.Arm()
			l.AppendInserts([]uint64{2}, nil)
			first := l.Sync()
			if !errors.Is(first, crashfs.ErrCrashed) {
				t.Fatalf("Sync over the failing %s = %v, want ErrCrashed", tc.name, first)
			}
			for k := uint64(3); k <= 5; k++ {
				l.AppendInserts([]uint64{k}, nil)
				if err := l.Sync(); err == nil || err.Error() != first.Error() {
					t.Fatalf("Sync after the failure = %v, want the latched %v", err, first)
				}
			}
			st := l.Stats()
			if st.DurableLSN != 1 || st.Ops != 2 || st.Err != first.Error() {
				t.Fatalf("after the failure: DurableLSN %d, Ops %d, Err %q; want 1, 2, %q", st.DurableLSN, st.Ops, st.Err, first)
			}
			var b strings.Builder
			if err := st.WritePrometheus(&b); err != nil || !strings.Contains(b.String(), "zmsq_wal_failed 1\n") {
				t.Fatalf("scrape of a failed log (%v) lacks zmsq_wal_failed 1:\n%s", err, b.String())
			}
			if _, err := fs.Materialize(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err == nil || err.Error() != first.Error() {
				t.Fatalf("Close = %v, want the latched %v", err, first)
			}

			l, got, err := wal.Open(wal.Options{Dir: dir, GroupCommit: time.Hour})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l.Close()
			if len(got.Keys) == 0 || len(got.Keys) > tc.maxKeys || !isPrefix(got.Keys) {
				t.Fatalf("reopen recovered %v, want [1] or at most its first %d keys in order", got.Keys, tc.maxKeys)
			}
		})
	}
}

// TestDirFsyncFailureFailsSnapshot: a chain element whose directory
// fsync failed may not be durable, so Snapshot returns the error before
// it trims the log, and the log keeps every record the element covers.
func TestDirFsyncFailureFailsSnapshot(t *testing.T) {
	dir := t.TempDir()
	fs := crashfs.New(6, crashfs.DirSync, 100)
	l := open(t, crashOptions(dir, fs))
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	l.AppendInserts(keys, nil)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "queue.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()
	if err := l.Snapshot(); !errors.Is(err, crashfs.ErrCrashed) {
		t.Fatalf("Snapshot with a failing directory fsync = %v, want ErrCrashed", err)
	}
	if after := size(); after != before {
		t.Fatalf("log went from %d to %d bytes: trimmed behind a snapshot that is not durable", before, after)
	}
	l.Close()
	l, st, err := wal.Open(wal.Options{Dir: dir, GroupCommit: time.Hour})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if !slices.Equal(st.Keys, keys) {
		t.Fatalf("reopen recovered %v, want every acked key %v", st.Keys, keys)
	}
}

// TestOpenMatchesRecover pins what Open promises to be: Recover plus the
// repairs an appending log needs. For a clean directory, a torn tail and
// each crash kind, the State Open returns equals what Recover read just
// before, the log file is cut at State.TornOffset (or left whole), and
// the first new record gets State.NextLSN.
func TestOpenMatchesRecover(t *testing.T) {
	// seed leaves a base-less chain of two deltas plus a log tail, valued
	// and key-only records mixed, and closes cleanly.
	seed := func(t *testing.T, opts wal.Options) {
		l := open(t, opts)
		for i := uint64(0); i < 3; i++ {
			l.AppendInserts([]uint64{10*i + 1, 10*i + 2, 10*i + 3}, [][]byte{[]byte("a"), nil, {}})
			l.AppendInserts([]uint64{10*i + 4}, nil)
			l.AppendExtracts([]uint64{10*i + 2})
			if i < 2 {
				if err := l.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// crashWith reopens the seeded directory under a crashfs failing the
	// first call of kind c, lets crash drive the log into it, and
	// materializes the crash.
	crashWith := func(c crashfs.Call, crash func(*testing.T, *wal.Log)) func(*testing.T, wal.Options) {
		return func(t *testing.T, opts wal.Options) {
			seed(t, opts)
			fs := crashfs.New(5, c, 100)
			opts.FS = fs
			l := open(t, opts)
			crash(t, l)
			select {
			case <-fs.Crashed():
			default:
				t.Fatal("the armed crash point did not fire")
			}
			materialize(t, fs, l)
		}
	}
	for _, tc := range []struct {
		name    string
		prepare func(*testing.T, wal.Options)
		torn    bool // the prepared log must end in a torn tail
	}{
		{name: "empty directory", prepare: func(*testing.T, wal.Options) {}},
		{name: "clean", prepare: seed},
		{name: "torn tail", torn: true, prepare: func(t *testing.T, opts wal.Options) {
			seed(t, opts)
			f, err := os.OpenFile(filepath.Join(opts.Dir, "queue.wal"), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Half a frame header: the signature of a kill mid-write.
			if _, err := f.Write([]byte{9, 0, 0, 0}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
		{name: "mid-append", torn: true, prepare: crashWith(crashfs.LogWrite, func(t *testing.T, l *wal.Log) {
			l.AppendInserts([]uint64{77, 78}, [][]byte{[]byte("lost"), nil})
			if err := l.Sync(); !errors.Is(err, crashfs.ErrCrashed) {
				t.Fatalf("Sync = %v, want ErrCrashed", err)
			}
		})},
		{name: "mid-fsync", prepare: crashWith(crashfs.LogSync, func(t *testing.T, l *wal.Log) {
			l.AppendInserts([]uint64{77}, nil)
			if err := l.Sync(); !errors.Is(err, crashfs.ErrCrashed) {
				t.Fatalf("Sync = %v, want ErrCrashed", err)
			}
		})},
		{name: "mid-snapshot", prepare: crashWith(crashfs.SnapWrite, func(t *testing.T, l *wal.Log) {
			l.AppendExtracts([]uint64{1})
			if err := l.Snapshot(); !errors.Is(err, crashfs.ErrCrashed) {
				t.Fatalf("Snapshot = %v, want ErrCrashed", err)
			}
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := wal.Options{Dir: t.TempDir(), GroupCommit: time.Hour}
			tc.prepare(t, opts)

			want, err := wal.Recover(opts.Dir)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if tc.torn && want.TornOffset < 0 {
				t.Fatalf("prepared log has no torn tail: %+v", want)
			}
			l, got, err := wal.Open(opts)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Open recovered\n%+v\nRecover read\n%+v", got, want)
			}
			end := want.WALBytes
			if want.TornOffset >= 0 {
				end = want.TornOffset
			}
			if fi, err := os.Stat(filepath.Join(opts.Dir, "queue.wal")); err != nil || fi.Size() != end {
				t.Fatalf("log file after Open: %v, %v; want %d bytes", fi, err, end)
			}
			l.AppendInserts([]uint64{500}, nil)
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if lsn := l.Stats().DurableLSN; lsn != want.NextLSN {
				t.Fatalf("first record after Open got LSN %d, want NextLSN %d", lsn, want.NextLSN)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			after, err := wal.Recover(opts.Dir)
			if err != nil {
				t.Fatalf("Recover after reopen: %v", err)
			}
			if after.Live() != want.Live()+1 || after.TornOffset >= 0 {
				t.Fatalf("reopened log recovered %d keys (torn at %d), want %d and no tear", after.Live(), after.TornOffset, want.Live()+1)
			}
		})
	}
}
