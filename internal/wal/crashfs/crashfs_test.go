package crashfs_test

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wal/crashfs"
)

// TestConcurrentAcksSurvive drives one log from several goroutines, each
// appending and syncing its own keys, until a scheduled write fails. Every
// call after the crash fails, and every key a Sync acknowledged before it
// recovers after Materialize. Run under -race it covers the FS lock.
func TestConcurrentAcksSurvive(t *testing.T) {
	dir := t.TempDir()
	fs := crashfs.New(11, crashfs.LogWrite, 5)
	l, _, err := wal.Open(wal.Options{Dir: dir, GroupCommit: time.Millisecond, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	acked := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(1); i <= 10_000; i++ {
				k := uint64(w+1)<<32 | i
				l.AppendInserts([]uint64{k}, nil)
				if l.Sync() != nil {
					return
				}
				acked[w] = append(acked[w], k)
			}
		}(w)
	}
	wg.Wait()
	select {
	case <-fs.Crashed():
	default:
		t.Fatal("no write failed in 40 000 syncs at 5 %")
	}
	if _, err := fs.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, crashfs.ErrCrashed) {
		t.Errorf("OpenFile after the crash = %v, want ErrCrashed", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, crashfs.ErrCrashed) {
		t.Errorf("SyncDir after the crash = %v, want ErrCrashed", err)
	}
	info, err := fs.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); !errors.Is(err, crashfs.ErrCrashed) {
		t.Errorf("Close after the crash = %v, want ErrCrashed", err)
	}
	if info.Cut > info.WrittenBytes || info.LostBytes != info.WrittenBytes-info.Cut {
		t.Errorf("inconsistent crash info %+v", info)
	}

	st, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := map[uint64]bool{}
	for _, k := range st.Keys {
		live[k] = true
	}
	for w, keys := range acked {
		for _, k := range keys {
			if !live[k] {
				t.Fatalf("worker %d: acked key %#x lost (cut %d of %d written)", w, k, info.Cut, info.WrittenBytes)
			}
		}
	}
}
