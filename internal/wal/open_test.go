package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestOpenMatchesRecover pins what Open promises to be: Recover plus the
// repairs an appending log needs. For a clean directory, a torn tail and
// each simulated crash kind, the State Open returns equals what Recover
// read just before, the log file is cut at State.TornOffset (or left
// whole), and the first new record gets State.NextLSN.
func TestOpenMatchesRecover(t *testing.T) {
	// seed leaves a base-less chain of two deltas plus a log tail, valued
	// and key-only records mixed, and closes cleanly.
	seed := func(t *testing.T, opts Options) {
		l := mustOpen(t, opts)
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
	// crashWith reopens the seeded directory with plan armed, lets crash
	// drive the log into it, and materializes the crash.
	crashWith := func(plan fault.Plan, crash func(*testing.T, *Log)) func(*testing.T, Options) {
		return func(t *testing.T, opts Options) {
			seed(t, opts)
			opts.Faults = fault.New(5, plan)
			l := mustOpen(t, opts)
			crash(t, l)
			select {
			case <-l.Crashed():
			default:
				t.Fatal("the armed crash point did not fire")
			}
			if _, err := l.SimulateCrash(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		prepare func(*testing.T, Options)
		torn    bool // the prepared log must end in a torn tail
	}{
		{name: "empty directory", prepare: func(*testing.T, Options) {}},
		{name: "clean", prepare: seed},
		{name: "torn tail", torn: true, prepare: func(t *testing.T, opts Options) {
			seed(t, opts)
			f, err := os.OpenFile(filepath.Join(opts.Dir, walName), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Half a frame header: the signature of a kill mid-write.
			if _, err := f.Write([]byte{9, 0, 0, 0}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
		{name: "mid-append", torn: true, prepare: crashWith(fault.Plan{WALAppendPct: 100}, func(t *testing.T, l *Log) {
			l.AppendInserts([]uint64{77, 78}, [][]byte{[]byte("lost"), nil})
		})},
		{name: "mid-fsync", prepare: crashWith(fault.Plan{WALFsyncPct: 100}, func(t *testing.T, l *Log) {
			l.AppendInserts([]uint64{77}, nil)
			if err := l.Sync(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Sync = %v, want ErrCrashed", err)
			}
		})},
		{name: "mid-snapshot", prepare: crashWith(fault.Plan{WALSnapshotPct: 100}, func(t *testing.T, l *Log) {
			l.AppendExtracts([]uint64{1})
			if err := l.Snapshot(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Snapshot = %v, want ErrCrashed", err)
			}
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions(t)
			opts.GroupCommit = time.Hour
			tc.prepare(t, opts)

			want, err := Recover(opts.Dir)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if tc.torn && want.TornOffset < 0 {
				t.Fatalf("prepared log has no torn tail: %+v", want)
			}
			l, got, err := Open(opts)
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
			if fi, err := os.Stat(filepath.Join(opts.Dir, walName)); err != nil || fi.Size() != end {
				t.Fatalf("log file after Open: %v, %v; want %d bytes", fi, err, end)
			}
			l.AppendInserts([]uint64{500}, nil)
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if lsn := l.DurableLSN(); lsn != want.NextLSN {
				t.Fatalf("first record after Open got LSN %d, want NextLSN %d", lsn, want.NextLSN)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			after, err := Recover(opts.Dir)
			if err != nil {
				t.Fatalf("Recover after reopen: %v", err)
			}
			if after.Live() != want.Live()+1 || after.TornOffset >= 0 {
				t.Fatalf("reopened log recovered %d keys (torn at %d), want %d and no tear", after.Live(), after.TornOffset, want.Live()+1)
			}
		})
	}
}

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
