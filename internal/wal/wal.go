package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// File names inside a durability directory. The log is a single appended
// file; snapshot bases and deltas are written to a temp name and renamed
// into place, so a crash mid-snapshot leaves a stale temp that Open and
// Recover ignore. Deltas are numbered queue.snap.d000000, .d000001, ...
// in chain order.
const (
	walName      = "queue.wal"
	snapName     = "queue.snap"
	snapTmpName  = "queue.snap.tmp"
	walTmpName   = "queue.wal.tmp"
	deltaPrefix  = "queue.snap.d"
	deltaTmpName = "queue.snap.dtmp"
)

// DefaultGroupCommit is the fsync interval serving tools default to: long
// enough to coalesce hundreds of appends per sync under load, short
// enough that an ack waits at most a few milliseconds.
const DefaultGroupCommit = 2 * time.Millisecond

// rebaseEvery is how many incremental delta snapshots accumulate before
// a full rebase folds the chain back into one base file. Recovery cost
// and directory file count grow with the chain length; write
// amplification shrinks with it.
const rebaseEvery = 8

// Options configures Open.
type Options struct {
	// Dir is the durability directory (created if missing). Required.
	Dir string
	// GroupCommit is the background fsync interval. Appends between two
	// syncs share one fsync — the group commit; an operation is durable
	// (ack-able) only once Sync has covered it. Must be > 0.
	GroupCommit time.Duration
	// SnapshotBytes, when > 0, takes an online snapshot (and trims the
	// log) whenever the log file grows past this size, and a snapshot then
	// reads the log at most this many bytes at a time, one chain element
	// per chunk. 0 disables automatic snapshots; Snapshot can still be
	// called manually, and reads the whole durable prefix at once.
	SnapshotBytes int64
	// FS carries every write, fsync, truncate, rename and directory fsync
	// the log makes. nil means the operating system.
	FS FS
}

// Stats is a point-in-time summary of a Log's activity, for the recovery
// gate's group-commit amortization report.
type Stats struct {
	// Records and Ops count appended records and logged operations (a
	// batch record is one record, len(keys) ops).
	Records, Ops uint64
	// Syncs counts completed fsyncs; Ops/Syncs is the group-commit
	// amortization factor.
	Syncs uint64
	// Snapshots counts chain elements written, Trims completed
	// snapshot/compaction cycles; a cycle writes one element per chunk
	// (see Log.Snapshot).
	Snapshots, Trims uint64
	// DeltaSnapshots and Rebases split Snapshots into incremental deltas
	// and full chain rebases; DeltaTime and RebaseTime are the wall time
	// spent making each kind, from reading the chunk to the installed
	// file.
	DeltaSnapshots, Rebases uint64
	DeltaTime, RebaseTime   time.Duration
	// TrimLockedTime is the wall time trims held the sync lock, copying
	// what was appended during the trim: Sync, and so every
	// acknowledgement, waits for it. Appends wait only for the file
	// handle swap at its end.
	TrimLockedTime time.Duration
	// AppendedBytes is the total record bytes appended this session.
	AppendedBytes int64
	// SnapshotBytesWritten is the total snapshot bytes written this
	// session (delta + base files) — the write-amplification numerator
	// the recovery gate compares against a full-rewrite policy.
	SnapshotBytesWritten int64
	// DurableLSN is the highest LSN covered by a completed fsync;
	// LastLSN is the highest LSN assigned.
	DurableLSN, LastLSN uint64
	// Err is the latched I/O error's text, empty while the log is healthy.
	// Once set, the log acknowledges nothing more.
	Err string
}

// Log is a group-committed write-ahead log of queue operations. All
// methods are safe for concurrent use; sharded.Open is the one product
// path that opens one.
//
// Append methods do not return errors: a hot-path insert cannot
// meaningfully handle a disk failure, and durability is only ever
// promised by Sync. The first I/O error is latched; subsequent appends
// are dropped and Sync (and Close) report the error, so an acknowledger
// can never ack past a failure.
type Log struct {
	dir  string
	opts Options // opts.FS is never nil

	// mu guards the pending buffer, LSN assignment, the file handle and
	// the rebase-able offsets. syncMu serializes Sync and trim, the only
	// writers of f, so the durable watermark and file identity are stable
	// across one sync.
	mu      sync.Mutex
	syncMu  sync.Mutex
	f       File
	buf     []byte
	spare   []byte // the buffer the last Sync wrote, for the next one to take
	nextLSN uint64
	written int64 // bytes flushed to f (current-file coordinates)
	err     error // first latched I/O error
	fclosed bool

	durableLSN atomic.Uint64
	durableOff atomic.Int64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// The snapshot cycle's state and the buffers it keeps from one cycle
	// to the next, all guarded by snapMu.
	snapMu     sync.Mutex
	snapErr    error
	chainLSN   uint64     // watermark of the newest chain element
	deltaCount int        // deltas since the last full base
	deltaSeq   int        // next delta file sequence number
	ev, evTmp  []event    // a chunk's events and the sort's scratch
	chunk      []byte     // a chunk of log read back
	chainRuns  []*run     // a rebase's chain file runs, with their buffers
	sw         snapWriter // the chain file writer
	copyBuf    []byte     // a trim's copy buffer

	records, ops, syncs, snaps, trims atomic.Uint64
	deltaSnaps, rebases               atomic.Uint64
	bytes, snapBytes                  atomic.Int64
	deltaNs, rebaseNs, trimLockedNs   atomic.Int64
}

// Open recovers the durability directory opts.Dir (created if missing)
// and opens its write-ahead log for appending: it is Recover, plus
// cutting a torn tail from an earlier crash off the file (the returned
// State reports what that tail held; no ack ever covered it), plus
// starting the group-commit goroutine. New records continue the LSN
// sequence at State.NextLSN. The directory is read once: the caller
// rebuilds its queue from the returned State.
func Open(opts Options) (*Log, *State, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: Options.Dir is empty")
	}
	if opts.GroupCommit <= 0 {
		return nil, nil, fmt.Errorf("wal: Options.GroupCommit is %v; it must be > 0 (DefaultGroupCommit is %v)", opts.GroupCommit, DefaultGroupCommit)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if opts.FS == nil {
		opts.FS = osFS{}
	}
	// Temps are crash leftovers: never valid, always safe to drop. (The
	// rename in trimTo is atomic, so queue.wal itself is always whole.)
	for _, tmp := range []string{snapTmpName, deltaTmpName, walTmpName} {
		_ = opts.FS.Remove(filepath.Join(opts.Dir, tmp))
	}

	st, err := Recover(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	end := st.WALBytes
	if st.TornOffset >= 0 {
		end = st.TornOffset
	}
	f, err := opts.FS.OpenFile(filepath.Join(opts.Dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(end, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}

	l := &Log{
		dir:        opts.Dir,
		opts:       opts,
		f:          f,
		nextLSN:    st.NextLSN,
		written:    end,
		chainLSN:   st.SnapshotLSN,
		deltaCount: st.Deltas,
		deltaSeq:   st.deltaSeq,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	// Everything already in the file survived a previous session (or its
	// crash): it is durable by construction.
	l.durableOff.Store(end)
	l.durableLSN.Store(st.NextLSN - 1)
	go l.run()
	return l, st, nil
}

// AppendInserts logs inserted keys; vals nil logs them key-only (format
// v1), otherwise vals is aligned with keys and each key carries its
// encoded payload (format v2; a nil entry is logged as an empty
// payload). Call it BEFORE the elements become visible in the queue:
// that ordering guarantees every element's insert record precedes any
// extract record for it, so every durable prefix of the log replays to a
// non-negative multiset. The bytes are copied into the pending buffer
// before return. A value over MaxValueLen latches an error (surfaced by
// Sync) instead of writing an invalid frame.
func (l *Log) AppendInserts(keys []uint64, vals [][]byte) { l.append(true, keys, vals) }

// AppendExtracts logs extracted keys. Call it AFTER the elements have
// been physically removed. Extract records are always key-only — the
// extractor already holds the value.
func (l *Log) AppendExtracts(keys []uint64) { l.append(false, keys, nil) }

// append frames keys (and vals, for valued inserts) into the pending
// buffer: one record when they fit under maxPayload, otherwise as many
// records as chunkLen cuts (each with its own LSN) — the decoder rejects
// frames over maxPayload, so a single oversized frame would be classified
// on recovery as a torn tail and truncated, along with every record after
// it. Each record's kind follows from its own key count (recordKind).
func (l *Log) append(insert bool, keys []uint64, vals [][]byte) {
	n := len(keys)
	if n == 0 {
		return
	}
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return
	}
	for i, v := range vals {
		if len(v) > MaxValueLen {
			l.err = fmt.Errorf("wal: value for key %d is %d bytes, over MaxValueLen %d", keys[i], len(v), MaxValueLen)
			l.mu.Unlock()
			return
		}
	}
	start := len(l.buf)
	recs := uint64(0)
	for len(keys) > 0 {
		c := chunkLen(keys, vals)
		var cv [][]byte
		if vals != nil {
			cv, vals = vals[:c], vals[c:]
		}
		l.buf = appendRecord(l.buf, recordKind(insert, c, cv != nil), l.nextLSN, keys[:c], cv)
		l.nextLSN++
		keys = keys[c:]
		recs++
	}
	recLen := int64(len(l.buf) - start)
	l.mu.Unlock()
	l.records.Add(recs)
	l.ops.Add(uint64(n))
	l.bytes.Add(recLen)
}

// flush writes the pending buffer to f and returns f's length after it
// and the last LSN in it. It takes the buffer under mu and writes without
// it, so appends go on into the spare buffer; the caller holds syncMu.
// A failed write latches.
func (l *Log) flush() (int64, uint64, error) {
	l.mu.Lock()
	buf, lsn, err := l.buf, l.nextLSN-1, l.err
	l.buf, l.spare = l.spare[:0], nil
	l.mu.Unlock()

	n := 0
	if err == nil && len(buf) > 0 {
		if n, err = l.f.Write(buf); err != nil {
			err = fmt.Errorf("wal: append: %w", err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.written += int64(n)
	l.spare = buf[:0]
	if l.err == nil {
		l.err = err
	}
	return l.written, lsn, l.err
}

// Sync flushes the pending buffer and fsyncs the file, advancing the
// durable watermark: every append that returned before Sync was called
// is durable once Sync returns nil. Concurrent Syncs coalesce behind one
// fsync's lock; this is the group-commit ack path. Appends never wait on
// it: neither the write nor the fsync holds mu. A failed write or fsync
// latches: this and every later Sync return the error, so nothing is
// acknowledged past the failure.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()

	off, lsn, err := l.flush()
	if err != nil || off == l.durableOff.Load() {
		return err // on nil, nothing new since the last sync
	}
	err = l.f.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
		}
		return l.err
	}
	l.durableOff.Store(off)
	l.durableLSN.Store(lsn)
	l.syncs.Add(1)
	return nil
}

// run is the group-commit loop: one fsync per interval covers every
// append that landed since the previous one, and the auto-snapshot
// threshold is checked after each sync. An automatic snapshot covers
// whole SnapshotBytes chunks only (see snapshot).
func (l *Log) run() {
	defer close(l.done)
	t := time.NewTicker(l.opts.GroupCommit)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			if err := l.Sync(); err != nil {
				continue
			}
			if l.opts.SnapshotBytes > 0 {
				l.mu.Lock()
				big := l.written > l.opts.SnapshotBytes
				l.mu.Unlock()
				if big {
					if err := l.snapshot(true); err != nil {
						l.snapMu.Lock()
						l.snapErr = err
						l.snapMu.Unlock()
					}
				}
			}
		}
	}
}

func (l *Log) stopBackground() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}

// Close performs a final sync and closes the file. It reports the
// latched error, or else the last automatic snapshot's.
func (l *Log) Close() error {
	l.stopBackground()
	serr := l.Sync()
	l.snapMu.Lock()
	if serr == nil {
		serr = l.snapErr
	}
	l.snapMu.Unlock()
	if cerr := l.closeFile(); serr == nil {
		serr = cerr
	}
	return serr
}

func (l *Log) closeFile() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fclosed {
		return nil
	}
	l.fclosed = true
	return l.f.Close()
}

// Stats returns a point-in-time activity summary.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	last, err := l.nextLSN-1, l.err
	l.mu.Unlock()
	s := Stats{
		Records:              l.records.Load(),
		Ops:                  l.ops.Load(),
		Syncs:                l.syncs.Load(),
		Snapshots:            l.snaps.Load(),
		Trims:                l.trims.Load(),
		DeltaSnapshots:       l.deltaSnaps.Load(),
		Rebases:              l.rebases.Load(),
		DeltaTime:            time.Duration(l.deltaNs.Load()),
		RebaseTime:           time.Duration(l.rebaseNs.Load()),
		TrimLockedTime:       time.Duration(l.trimLockedNs.Load()),
		AppendedBytes:        l.bytes.Load(),
		SnapshotBytesWritten: l.snapBytes.Load(),
		DurableLSN:           l.durableLSN.Load(),
		LastLSN:              last,
	}
	if err != nil {
		s.Err = err.Error()
	}
	return s
}

// WritePrometheus renders the summary in Prometheus text exposition format
// under the zmsq_wal_ namespace, returning the first write error.
func (s Stats) WritePrometheus(w io.Writer) error {
	p := metrics.NewPromWriter(w)
	p.Counter("zmsq_wal_ops_total", "logged operations (batch members each count)", s.Ops)
	p.Counter("zmsq_wal_records_total", "appended records", s.Records)
	p.Counter("zmsq_wal_syncs_total", "completed fsyncs (ops/syncs is the group-commit factor)", s.Syncs)
	p.Counter("zmsq_wal_snapshots_total", "snapshot chain elements written (one per chunk of log)", s.Snapshots)
	p.Counter("zmsq_wal_rebases_total", "snapshots that rebased the delta chain", s.Rebases)
	p.CounterFloat("zmsq_wal_delta_seconds_total", "wall time spent making delta chain elements", s.DeltaTime.Seconds())
	p.CounterFloat("zmsq_wal_rebase_seconds_total", "wall time spent rebasing the chain into a base", s.RebaseTime.Seconds())
	p.CounterFloat("zmsq_wal_trim_locked_seconds_total", "wall time trims held the sync lock that acknowledgements wait on", s.TrimLockedTime.Seconds())
	p.Counter("zmsq_wal_appended_bytes_total", "record bytes appended", uint64(s.AppendedBytes))
	p.Counter("zmsq_wal_snapshot_bytes_total", "snapshot bytes written (base + delta files)", uint64(s.SnapshotBytesWritten))
	p.Gauge("zmsq_wal_durable_lsn", "highest LSN covered by a completed fsync", float64(s.DurableLSN))
	p.Gauge("zmsq_wal_last_lsn", "highest LSN assigned", float64(s.LastLSN))
	failed := 0.0
	if s.Err != "" {
		failed = 1
	}
	p.Gauge("zmsq_wal_failed", "1 once an I/O error has latched and the log acknowledges nothing more", failed)
	return p.Err()
}

// durableWatermark returns the durable (offset, LSN) watermark as a
// consistent pair. Sync stores both values while holding mu (and trimTo
// rebases the offset under it), so two bare atomic loads could observe
// one sync's offset with another's LSN — a torn pair that would let a
// snapshot claim a watermark LSN its covered prefix does not contain.
func (l *Log) durableWatermark() (off int64, lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableOff.Load(), l.durableLSN.Load()
}
