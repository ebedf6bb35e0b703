package wal

import (
	"errors"
	"fmt"
)

// This file is the crash-simulation support used by the chaos and
// recovery harnesses. A "crash" is modeled at the file level: the on-disk
// image after a process kill is some prefix of the bytes the process
// wrote (a single appended file has no reordering to worry about), and
// everything covered by a completed fsync is guaranteed to be inside
// that prefix. The simulation therefore freezes a byte offset — the
// crash cut — chosen per crash point:
//
//   - fault.WALAppend fires inside an append: the cut lands mid-record,
//     so recovery sees a torn tail starting at that record.
//   - fault.WALFsync fires inside a sync: the cut lands somewhere in the
//     group being synced and the durable watermark does NOT advance —
//     the caller gets ErrCrashed instead of an ack.
//   - fault.WALSnapshot fires inside a snapshot write: the temp snapshot
//     file is abandoned part-written and the cut lands in the log's
//     unsynced tail.
//   - ForceCrash (the torn-tail scenario) cuts at a seeded random offset
//     between the durable watermark and the last byte appended.
//
// Once a cut is frozen the log is "crashed": appends are dropped, Sync
// returns ErrCrashed (no ack can be issued for work at or beyond the
// cut), and SimulateCrash materializes the kill by truncating the file
// to the cut. The cut is always clamped to the durable watermark — a
// crash can never un-persist an fsynced byte.

// crashLocked freezes the crash cut. l.mu must be held.
func (l *Log) crashLocked(cut int64) {
	if !l.crashed.CompareAndSwap(false, true) {
		return
	}
	if d := l.durableOff.Load(); cut < d {
		cut = d
	}
	l.crashCut = cut
	close(l.crashC)
}

// ForceCrash freezes a torn-tail crash at a seeded random offset in the
// unsynced tail (inclusive of both ends: the cut may fall exactly on the
// durable watermark — nothing unsynced survives — or keep the whole
// tail, or split a record). It is idempotent; only the first crash
// sticks.
func (l *Log) ForceCrash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := l.written + int64(len(l.buf))
	d := l.durableOff.Load()
	l.crashLocked(d + int64(l.rng.Uint64n(uint64(total-d)+1)))
}

// Crashed returns a channel closed when a crash cut has been frozen.
func (l *Log) Crashed() <-chan struct{} { return l.crashC }

// CrashInfo reports what a simulated crash destroyed.
type CrashInfo struct {
	// Cut is the byte offset the log file was truncated to.
	Cut int64
	// WrittenBytes is the total appended at the crash moment; LostBytes
	// is WrittenBytes - Cut.
	WrittenBytes, LostBytes int64
	// DurableLSN is the watermark at the crash: every op at or below it
	// was acked-able and must survive recovery.
	DurableLSN uint64
}

// SimulateCrash materializes the frozen crash: it stops the group-commit
// goroutine, flushes what the process had buffered, truncates the file
// to the cut, and closes it — leaving the directory exactly as a kill -9
// at the cut point would have. If no crash point fired during the run it
// behaves like ForceCrash first. The Log is unusable afterwards; reopen
// the directory with Recover + Open.
func (l *Log) SimulateCrash() (CrashInfo, error) {
	l.ForceCrash() // no-op if a fault point already froze a cut
	l.stopBackground()

	l.mu.Lock()
	defer l.mu.Unlock()
	info := CrashInfo{Cut: l.crashCut, DurableLSN: l.durableLSN.Load()}
	// Flush the pre-crash buffer so the file holds every byte the cut
	// offset is relative to, then cut. (Appends after the crash froze
	// were dropped before reaching the buffer.)
	if len(l.buf) > 0 && l.err == nil {
		n, err := l.f.Write(l.buf)
		l.written += int64(n)
		if err != nil {
			return info, fmt.Errorf("wal: simulate crash: %w", err)
		}
		l.buf = l.buf[:0]
	}
	info.WrittenBytes = l.written
	info.LostBytes = l.written - info.Cut
	if err := l.f.Truncate(info.Cut); err != nil {
		return info, fmt.Errorf("wal: simulate crash: %w", err)
	}
	l.fclosed = true
	if err := l.f.Close(); err != nil {
		return info, fmt.Errorf("wal: simulate crash: %w", err)
	}
	return info, nil
}

// IsCrashed reports whether err is the simulated-crash sentinel.
func IsCrashed(err error) bool { return errors.Is(err, ErrCrashed) }
