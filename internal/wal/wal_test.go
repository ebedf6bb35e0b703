package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{Dir: t.TempDir(), GroupCommit: time.Millisecond, Seed: 1}
}

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// recoverKeys recovers dir and fails the test on error.
func recoverKeys(t *testing.T, dir string) []uint64 {
	t.Helper()
	st, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return st.Keys
}

func wantKeys(t *testing.T, got []uint64, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered keys %v, want %v", got, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	opts := testOptions(t)
	l := mustOpen(t, opts)
	l.AppendInsert(5)
	l.AppendInsertBatch([]uint64{7, 9, 7})
	l.AppendExtract(9)
	l.AppendExtractBatch([]uint64{7})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wantKeys(t, recoverKeys(t, opts.Dir), 5, 7)
}

// An append batch larger than maxBatchKeys must be split into several
// records: a single oversized frame would exceed maxPayload, which the
// decoder classifies as a torn tail — recovery would then silently
// truncate that record and everything after it.
func TestOversizedBatchChunked(t *testing.T) {
	opts := testOptions(t)
	l := mustOpen(t, opts)
	n := maxBatchKeys + 5
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	l.AppendInsertBatch(keys)
	l.AppendExtractBatch([]uint64{0, uint64(n - 1)})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := l.Stats(); st.Records != 3 {
		t.Fatalf("oversized batch + extract appended %d records, want 3 (2 insert chunks + 1 extract)", st.Records)
	}

	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st.TornOffset != -1 {
		t.Fatalf("recovery saw a torn tail at %d in a cleanly closed log", st.TornOffset)
	}
	if len(st.Keys) != n-2 {
		t.Fatalf("recovered %d keys, want %d", len(st.Keys), n-2)
	}
	for i, k := range st.Keys {
		if k != uint64(i+1) {
			t.Fatalf("recovered key[%d] = %d, want %d", i, k, i+1)
		}
	}
}

func TestEmptyDirRecoversEmpty(t *testing.T) {
	st, err := Recover(t.TempDir())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(st.Keys) != 0 || st.NextLSN != 1 {
		t.Fatalf("empty dir recovered %v, NextLSN %d", st.Keys, st.NextLSN)
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	opts := testOptions(t)
	l := mustOpen(t, opts)
	l.AppendInsert(1)
	l.AppendInsert(2)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l = mustOpen(t, opts)
	l.AppendInsert(3)
	l.AppendExtract(1)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, st.Keys, 2, 3)
	if st.NextLSN != 5 {
		t.Fatalf("NextLSN = %d after 4 records, want 5", st.NextLSN)
	}
}

func TestSyncMakesDurable(t *testing.T) {
	opts := testOptions(t)
	opts.GroupCommit = time.Hour // no background syncs: only explicit Sync counts
	l := mustOpen(t, opts)
	l.AppendInsert(11)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := l.DurableLSN(); got != 1 {
		t.Fatalf("DurableLSN = %d after syncing 1 record, want 1", got)
	}
	l.AppendInsert(22) // never synced
	info, err := l.SimulateCrash()
	if err != nil {
		t.Fatalf("SimulateCrash: %v", err)
	}
	if info.DurableLSN != 1 {
		t.Fatalf("crash DurableLSN = %d, want 1", info.DurableLSN)
	}
	got := recoverKeys(t, opts.Dir)
	// Key 11 was acked and must survive; 22 may or may not, depending on
	// where the seeded cut fell.
	if len(got) == 0 || got[0] != 11 {
		t.Fatalf("acked key 11 lost: recovered %v", got)
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	opts := testOptions(t)
	l := mustOpen(t, opts)
	l.AppendInsert(1)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	l.AppendInsert(2)
	l.mu.Lock()
	l.flushLocked()
	l.mu.Unlock()
	// Tear the second record by hand: cut 3 bytes off the file.
	l.stopBackground()
	l.closeFile()
	path := filepath.Join(opts.Dir, walName)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover on torn tail: %v", err)
	}
	if st.TornOffset < 0 || st.TornBytes == 0 {
		t.Fatalf("tear not reported: %+v", st)
	}
	wantKeys(t, st.Keys, 1)

	// Reopen truncates the tear and continues the LSN sequence.
	l = mustOpen(t, opts)
	l.AppendInsert(3)
	if err := l.Close(); err != nil {
		t.Fatalf("Close after tear: %v", err)
	}
	wantKeys(t, recoverKeys(t, opts.Dir), 1, 3)
}

func TestCorruptionFailsHard(t *testing.T) {
	opts := testOptions(t)
	l := mustOpen(t, opts)
	l.AppendInsert(1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte and re-frame with a valid CRC: CRC-valid
	// nonsense (here: an extract with no matching insert) must not be
	// mistaken for a torn tail.
	path := filepath.Join(opts.Dir, walName)
	b, _ := os.ReadFile(path)
	b = appendRecord(b, recExtract, 99, 42, nil)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(opts.Dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover on unmatched extract = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotCompactsAndRecovers(t *testing.T) {
	opts := testOptions(t)
	l := mustOpen(t, opts)
	for i := uint64(1); i <= 100; i++ {
		l.AppendInsert(i)
	}
	for i := uint64(1); i <= 90; i++ {
		l.AppendExtract(i)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	stats := l.Stats()
	if stats.Snapshots != 1 || stats.Trims != 1 {
		t.Fatalf("stats after snapshot: %+v", stats)
	}
	// The log was trimmed to (at most) whatever raced past the
	// watermark; with no concurrent appends it must be empty.
	l.mu.Lock()
	written := l.written
	l.mu.Unlock()
	if written != 0 {
		t.Fatalf("log holds %d bytes after quiescent snapshot, want 0", written)
	}

	// Appends continue against the snapshot watermark.
	l.AppendInsert(200)
	l.AppendExtract(95)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, st.Keys, 91, 92, 93, 94, 96, 97, 98, 99, 100, 200)
	if st.SnapshotKeys != 10 {
		t.Fatalf("SnapshotKeys = %d, want 10", st.SnapshotKeys)
	}
}

func TestAutoSnapshotByBytes(t *testing.T) {
	opts := testOptions(t)
	opts.SnapshotBytes = 1 << 10
	l := mustOpen(t, opts)
	for i := uint64(0); i < 2000; i++ {
		l.AppendInsert(i)
		if i%64 == 0 {
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic snapshot after 5s above SnapshotBytes")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := recoverKeys(t, opts.Dir); len(got) != 2000 {
		t.Fatalf("recovered %d keys across auto-snapshot, want 2000", len(got))
	}
}

func TestCrashMidAppendLeavesTornTail(t *testing.T) {
	opts := testOptions(t)
	opts.GroupCommit = time.Hour
	opts.Faults = fault.New(7, fault.Plan{WALAppendPct: 100})
	l := mustOpen(t, opts)
	l.AppendInsert(1) // crash point fires inside this append
	select {
	case <-l.Crashed():
	default:
		t.Fatal("WALAppend at 100% did not freeze a crash")
	}
	if err := l.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Sync after crash = %v, want ErrCrashed", err)
	}
	info, err := l.SimulateCrash()
	if err != nil {
		t.Fatalf("SimulateCrash: %v", err)
	}
	if info.Cut >= info.WrittenBytes && info.WrittenBytes > 0 {
		// Mid-append cut must fall strictly inside the record.
		t.Fatalf("mid-append cut %d not inside record (written %d)", info.Cut, info.WrittenBytes)
	}
	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(st.Keys) != 0 {
		t.Fatalf("unacked key survived a mid-append crash: %v", st.Keys)
	}
}

func TestCrashMidFsyncDoesNotAck(t *testing.T) {
	opts := testOptions(t)
	opts.GroupCommit = time.Hour
	opts.Faults = fault.New(3, fault.Plan{WALFsyncPct: 100})
	l := mustOpen(t, opts)
	l.AppendInsert(1)
	if err := l.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Sync with WALFsync at 100%% = %v, want ErrCrashed", err)
	}
	if got := l.DurableLSN(); got != 0 {
		t.Fatalf("watermark advanced across a failed fsync: %d", got)
	}
	if _, err := l.SimulateCrash(); err != nil {
		t.Fatalf("SimulateCrash: %v", err)
	}
	if _, err := Recover(opts.Dir); err != nil {
		t.Fatalf("Recover after mid-fsync crash: %v", err)
	}
}

func TestCrashMidSnapshotKeepsOldState(t *testing.T) {
	opts := testOptions(t)
	opts.GroupCommit = time.Hour
	l := mustOpen(t, opts)
	for i := uint64(1); i <= 50; i++ {
		l.AppendInsert(i)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen with the snapshot point armed; the second snapshot dies
	// mid-write and must not damage the first.
	opts.Faults = fault.New(9, fault.Plan{WALSnapshotPct: 100})
	l = mustOpen(t, opts)
	l.AppendExtract(50)
	if err := l.Snapshot(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Snapshot with WALSnapshot armed = %v, want ErrCrashed", err)
	}
	if _, err := l.SimulateCrash(); err != nil {
		t.Fatalf("SimulateCrash: %v", err)
	}
	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover after mid-snapshot crash: %v", err)
	}
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
	opts := testOptions(t)
	opts.GroupCommit = time.Hour
	l := mustOpen(t, opts)
	for i := uint64(1); i <= 8; i++ {
		l.AppendInsert(i)
		if i == 4 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.ForceCrash()
	info, err := l.SimulateCrash()
	if err != nil {
		t.Fatalf("SimulateCrash: %v", err)
	}
	st, err := Recover(opts.Dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(st.Keys) < 4 {
		t.Fatalf("acked keys 1..4 not all recovered (cut %d): %v", info.Cut, st.Keys)
	}
	for i, k := range st.Keys {
		if k != uint64(i+1) {
			t.Fatalf("recovered keys not a prefix of the insert order: %v", st.Keys)
		}
	}
}

func TestAppendsDroppedAfterCrash(t *testing.T) {
	opts := testOptions(t)
	opts.GroupCommit = time.Hour
	l := mustOpen(t, opts)
	l.AppendInsert(1)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.ForceCrash()
	l.AppendInsert(2) // dropped: the process is "dead"
	if _, err := l.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, recoverKeys(t, opts.Dir), 1)
}

func TestOpenValidatesOptions(t *testing.T) {
	if _, err := Open(Options{GroupCommit: time.Millisecond}); err == nil {
		t.Fatal("Open with empty Dir succeeded")
	}
	if _, err := Open(Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("Open with zero GroupCommit succeeded")
	}
}

func TestDecoderCleanEOF(t *testing.T) {
	var b []byte
	b = appendRecord(b, recInsert, 1, 10, nil)
	b = appendRecord(b, recExtractBatch, 2, 0, []uint64{10})
	d := NewDecoder(b)
	for i := 0; i < 2; i++ {
		if _, err := d.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
	if d.Offset() != int64(len(b)) {
		t.Fatalf("Offset %d != len %d", d.Offset(), len(b))
	}
}
