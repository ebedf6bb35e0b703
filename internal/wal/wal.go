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

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/xrand"
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

// DefaultRebaseEvery is how many incremental delta snapshots accumulate
// before a full rebase folds the chain back into one base file.
const DefaultRebaseEvery = 8

// ErrCrashed is returned once a simulated crash has been triggered (see
// the fault.WALAppend/WALFsync/WALSnapshot points and ForceCrash): the
// log stops accepting work, exactly as if the process had died at the
// frozen cut point.
var ErrCrashed = errors.New("wal: simulated crash")

// Options configures Open.
type Options struct {
	// Dir is the durability directory (created if missing). Required.
	Dir string
	// GroupCommit is the background fsync interval. Appends between two
	// syncs share one fsync — the group commit; an operation is durable
	// (ack-able) only once Sync has covered it. Must be > 0.
	GroupCommit time.Duration
	// SnapshotBytes, when > 0, takes an online snapshot (and trims the
	// log) whenever the log file grows past this size. 0 disables
	// automatic snapshots; Snapshot can still be called manually.
	SnapshotBytes int64
	// RebaseEvery bounds the incremental snapshot chain: after this many
	// delta snapshots the next snapshot is a full rebase that merges the
	// chain into one base file and deletes the deltas. 0 means
	// DefaultRebaseEvery. Recovery cost and directory file count grow
	// with the chain length; write amplification shrinks with it.
	RebaseEvery int
	// Seed seeds the crash-point randomization used by the fault hooks.
	Seed uint64
	// Faults, when non-nil, arms the WAL crash points (fault.WALAppend,
	// fault.WALFsync, fault.WALSnapshot). The first point that fires
	// freezes a crash cut and flips the log into the crashed state.
	Faults *fault.Injector
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
	// Snapshots and Trims count completed snapshot/compaction cycles.
	Snapshots, Trims uint64
	// DeltaSnapshots and Rebases split Snapshots into incremental deltas
	// and full chain rebases.
	DeltaSnapshots, Rebases uint64
	// AppendedBytes is the total record bytes appended this session.
	AppendedBytes int64
	// SnapshotBytesWritten is the total snapshot bytes written this
	// session (delta + base files) — the write-amplification numerator
	// the recovery gate compares against a full-rewrite policy.
	SnapshotBytesWritten int64
	// DurableLSN is the highest LSN covered by a completed fsync;
	// LastLSN is the highest LSN assigned.
	DurableLSN, LastLSN uint64
}

// Log is a group-committed write-ahead log of queue operations. All
// methods are safe for concurrent use. It implements core.WALPolicy.
//
// Append methods do not return errors: a hot-path insert cannot
// meaningfully handle a disk failure, and durability is only ever
// promised by Sync. The first I/O error is latched; subsequent appends
// are dropped and Sync (and Close) report the error, so an acknowledger
// can never ack past a failure.
type Log struct {
	dir    string
	opts   Options
	faults *fault.Injector

	// mu guards the pending buffer, LSN assignment, the file handle and
	// the rebase-able offsets. syncMu serializes fsync and trim so the
	// durable watermark and file identity are stable across one sync.
	mu      sync.Mutex
	syncMu  sync.Mutex
	f       *os.File
	buf     []byte
	nextLSN uint64
	written int64 // bytes flushed to f (current-file coordinates)
	err     error // first latched I/O error
	rng     xrand.Rand
	fclosed bool

	durableLSN atomic.Uint64
	durableOff atomic.Int64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	crashed  atomic.Bool
	crashCut int64 // guarded by mu, written once under the crashed CAS
	crashC   chan struct{}

	snapMu     sync.Mutex
	snapErr    error  // guarded by snapMu
	chainLSN   uint64 // watermark of the newest chain element (snapMu)
	deltaCount int    // deltas since the last full base (snapMu)
	deltaSeq   int    // next delta file sequence number (snapMu)

	// k1/v1 are single-element scratch for AppendInsertValue, so the
	// valued single-insert path shares the batch encoder without
	// allocating. Guarded by mu; v1s[0] is cleared after use so the log
	// never retains a caller's value buffer.
	k1s [1]uint64
	v1s [1][]byte

	records, ops, syncs, snaps, trims atomic.Uint64
	deltaSnaps, rebases               atomic.Uint64
	bytes, snapBytes                  atomic.Int64
}

// Open opens (creating if necessary) the write-ahead log in opts.Dir and
// starts the group-commit goroutine. An existing log is scanned to its
// last intact record — a torn tail from an earlier crash is truncated
// away (Recover reports what such a tail contained; by the time Open
// runs, recovery has already decided those bytes are lost) — and new
// records continue the LSN sequence above both the log's last record and
// the snapshot watermark.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is empty")
	}
	if opts.GroupCommit <= 0 {
		return nil, fmt.Errorf("wal: Options.GroupCommit is %v; it must be > 0 (DefaultGroupCommit is %v)", opts.GroupCommit, DefaultGroupCommit)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// A snapshot temp is a crash leftover: never valid, always safe to
	// drop. (A wal temp is handled by scanExisting below: the rename in
	// trimTo is atomic, so queue.wal is always whole.)
	_ = os.Remove(filepath.Join(opts.Dir, snapTmpName))
	_ = os.Remove(filepath.Join(opts.Dir, deltaTmpName))
	_ = os.Remove(filepath.Join(opts.Dir, walTmpName))

	// Loading the whole snapshot chain validates every base/delta file
	// and yields the watermark new LSNs must stay above, plus where the
	// delta numbering left off.
	ch, err := loadChain(opts.Dir)
	if err != nil {
		return nil, err
	}
	snapLSN := ch.lsn
	end, lastLSN, err := scanExisting(filepath.Join(opts.Dir, walName))
	if err != nil {
		return nil, err
	}

	f, err := os.OpenFile(filepath.Join(opts.Dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(end, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}

	next := lastLSN
	if snapLSN > next {
		next = snapLSN
	}
	next++

	if opts.RebaseEvery <= 0 {
		opts.RebaseEvery = DefaultRebaseEvery
	}
	l := &Log{
		dir:        opts.Dir,
		opts:       opts,
		faults:     opts.Faults,
		f:          f,
		nextLSN:    next,
		written:    end,
		chainLSN:   ch.lsn,
		deltaCount: ch.deltas,
		deltaSeq:   ch.nextSeq,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		crashC:     make(chan struct{}),
	}
	l.rng.Seed(xrand.Mix64(opts.Seed ^ 0xd0_0d_5eed))
	// Everything already in the file survived a previous session (or its
	// crash): it is durable by construction.
	l.durableOff.Store(end)
	l.durableLSN.Store(next - 1)
	go l.run()
	return l, nil
}

// scanExisting finds the end of the last intact record and the last LSN
// of an existing log file. A missing file is an empty log; a torn tail is
// cut at its start; CRC-valid corruption is a hard error.
func scanExisting(path string) (end int64, lastLSN uint64, err error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	d := NewDecoder(b)
	for {
		rec, err := d.Next()
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				return 0, 0, err
			}
			break // io.EOF (clean end) or a torn tail to truncate
		}
		lastLSN = rec.LSN
	}
	return d.Offset(), lastLSN, nil
}

// append frames one or more records into the pending buffer. key is used
// for the single-op kinds; keys for the batch kinds. A batch larger than
// maxBatchKeys is chunked into several records (each with its own LSN):
// the decoder rejects frames over maxPayload, so a single oversized frame
// would be classified on recovery as a torn tail and truncated — along
// with every record after it.
func (l *Log) append(kind byte, key uint64, keys []uint64) {
	n := 1
	batch := kind == recInsertBatch || kind == recExtractBatch
	if batch {
		n = len(keys)
		if n == 0 {
			return
		}
	}
	l.mu.Lock()
	if l.err != nil || l.crashed.Load() {
		l.mu.Unlock()
		return
	}
	start := len(l.buf)
	recs := uint64(0)
	if batch {
		for len(keys) > 0 {
			c := keys
			if len(c) > maxBatchKeys {
				c = c[:maxBatchKeys]
			}
			l.buf = appendRecord(l.buf, kind, l.nextLSN, 0, c)
			l.nextLSN++
			keys = keys[len(c):]
			recs++
		}
	} else {
		l.buf = appendRecord(l.buf, kind, l.nextLSN, key, nil)
		l.nextLSN++
		recs = 1
	}
	recLen := int64(len(l.buf) - start)
	if l.faults != nil && l.faults.Fire(fault.WALAppend) {
		// Crash mid-append: the cut lands inside this append's frames, so
		// recovery sees a torn tail beginning at or after their start.
		recStart := l.written + int64(start)
		l.crashLocked(recStart + int64(l.rng.Uint64n(uint64(recLen))))
	}
	l.mu.Unlock()
	l.records.Add(recs)
	l.ops.Add(uint64(n))
	l.bytes.Add(recLen)
}

// AppendInsert logs one inserted key. Call it BEFORE the element becomes
// visible in the queue: that ordering guarantees every element's insert
// record precedes any extract record for it, so every durable prefix of
// the log replays to a non-negative multiset.
func (l *Log) AppendInsert(key uint64) { l.append(recInsert, key, nil) }

// AppendInsertBatch logs a batch of inserted keys as one record (one
// frame, one LSN), chunked into several records above maxBatchKeys keys.
// Same ordering rule as AppendInsert.
func (l *Log) AppendInsertBatch(keys []uint64) { l.append(recInsertBatch, 0, keys) }

// AppendInsertValue logs one inserted key together with its encoded
// payload value as a v2 record. Same ordering rule as AppendInsert. The
// value bytes are copied into the pending buffer before return; the
// caller's slice is not retained. A value over MaxValueLen latches an
// error (surfaced by Sync) instead of writing an invalid frame.
func (l *Log) AppendInsertValue(key uint64, val []byte) {
	l.mu.Lock()
	if l.err != nil || l.crashed.Load() {
		l.mu.Unlock()
		return
	}
	if len(val) > MaxValueLen {
		l.err = fmt.Errorf("wal: value for key %d is %d bytes, over MaxValueLen %d", key, len(val), MaxValueLen)
		l.mu.Unlock()
		return
	}
	start := len(l.buf)
	l.k1s[0], l.v1s[0] = key, val
	l.buf = appendValueRecord(l.buf, recInsertV, l.nextLSN, l.k1s[:], l.v1s[:])
	l.v1s[0] = nil
	l.nextLSN++
	recLen := int64(len(l.buf) - start)
	if l.faults != nil && l.faults.Fire(fault.WALAppend) {
		recStart := l.written + int64(start)
		l.crashLocked(recStart + int64(l.rng.Uint64n(uint64(recLen))))
	}
	l.mu.Unlock()
	l.records.Add(1)
	l.ops.Add(1)
	l.bytes.Add(recLen)
}

// AppendInsertBatchValues logs a batch of inserted keys with their
// encoded payload values, chunked into as many v2 records as the
// per-record byte budget requires (each chunk holds at least one
// member). keys and vals must be aligned; a nil value is logged as an
// empty payload. Same ordering rule as AppendInsert.
func (l *Log) AppendInsertBatchValues(keys []uint64, vals [][]byte) {
	n := len(keys)
	if n == 0 {
		return
	}
	l.mu.Lock()
	if l.err != nil || l.crashed.Load() {
		l.mu.Unlock()
		return
	}
	for i := range vals {
		if len(vals[i]) > MaxValueLen {
			l.err = fmt.Errorf("wal: value for key %d is %d bytes, over MaxValueLen %d", keys[i], len(vals[i]), MaxValueLen)
			l.mu.Unlock()
			return
		}
	}
	start := len(l.buf)
	recs := uint64(0)
	for len(keys) > 0 {
		// Greedy byte-budget chunk: pack members while the encoded record
		// stays under maxPayload. A single member always fits (values are
		// bounded by MaxValueLen above).
		size := 13 // kind(1) + lsn(8) + count(4)
		c := 0
		for c < len(keys) {
			m := valuedMemberLen(vals[c])
			if c > 0 && size+m > maxPayload {
				break
			}
			size += m
			c++
		}
		l.buf = appendValueRecord(l.buf, recInsertBatchV, l.nextLSN, keys[:c], vals[:c])
		l.nextLSN++
		keys, vals = keys[c:], vals[c:]
		recs++
	}
	recLen := int64(len(l.buf) - start)
	if l.faults != nil && l.faults.Fire(fault.WALAppend) {
		recStart := l.written + int64(start)
		l.crashLocked(recStart + int64(l.rng.Uint64n(uint64(recLen))))
	}
	l.mu.Unlock()
	l.records.Add(recs)
	l.ops.Add(uint64(n))
	l.bytes.Add(recLen)
}

// AppendExtract logs one extracted key. Call it AFTER the element has
// been physically removed. Extract records are always key-only — the
// extractor already holds the value.
func (l *Log) AppendExtract(key uint64) { l.append(recExtract, key, nil) }

// AppendExtractBatch logs a batch of extracted keys as one record.
func (l *Log) AppendExtractBatch(keys []uint64) { l.append(recExtractBatch, 0, keys) }

// flushLocked writes the pending buffer to the file. l.mu must be held.
func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if len(l.buf) == 0 {
		return nil
	}
	n, err := l.f.Write(l.buf)
	l.written += int64(n)
	if err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return l.err
	}
	l.buf = l.buf[:0]
	return nil
}

// Sync flushes the pending buffer and fsyncs the file, advancing the
// durable watermark: every append that returned before Sync was called
// is durable once Sync returns nil. Concurrent Syncs coalesce behind one
// fsync's lock; this is the group-commit ack path.
func (l *Log) Sync() error {
	if l.crashed.Load() {
		return ErrCrashed
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()

	l.mu.Lock()
	// Re-check under mu: a crash frozen by another goroutine (ForceCrash,
	// or a WALFsync fault in a concurrent Sync) fixes the cut at the
	// watermark's current value — this Sync must not advance it past the
	// cut and hand out acks the crash has already destroyed.
	if l.crashed.Load() {
		l.mu.Unlock()
		return ErrCrashed
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	off, lsn, f := l.written, l.nextLSN-1, l.f
	if l.faults != nil && l.faults.Fire(fault.WALFsync) {
		// Crash mid-fsync: some prefix of the group being synced reached
		// the disk, but the sync never completed — the watermark must not
		// advance and the caller must not ack.
		d := l.durableOff.Load()
		l.crashLocked(d + int64(l.rng.Uint64n(uint64(off-d)+1)))
		l.mu.Unlock()
		return ErrCrashed
	}
	l.mu.Unlock()

	if off == l.durableOff.Load() {
		return nil // nothing new since the last sync
	}
	if err := f.Sync(); err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
		}
		l.mu.Unlock()
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Same re-check after the fsync: if a crash froze its cut while the
	// fsync was in flight, the bytes beyond the cut reached the disk but
	// the simulated machine never saw the sync complete — the watermark
	// stays put and the caller must not ack.
	if l.crashed.Load() {
		return ErrCrashed
	}
	l.durableOff.Store(off)
	l.durableLSN.Store(lsn)
	l.syncs.Add(1)
	return nil
}

// run is the group-commit loop: one fsync per interval covers every
// append that landed since the previous one, and the auto-snapshot
// threshold is checked after each sync.
func (l *Log) run() {
	defer close(l.done)
	t := time.NewTicker(l.opts.GroupCommit)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-l.crashC:
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
					if err := l.Snapshot(); err != nil && !errors.Is(err, ErrCrashed) {
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

// Close performs a final sync and closes the file. After a simulated
// crash it closes without syncing (the crash already decided what
// survives) and returns ErrCrashed.
func (l *Log) Close() error {
	l.stopBackground()
	if l.crashed.Load() {
		l.closeFile()
		return ErrCrashed
	}
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
	return Stats{
		Records:              l.records.Load(),
		Ops:                  l.ops.Load(),
		Syncs:                l.syncs.Load(),
		Snapshots:            l.snaps.Load(),
		Trims:                l.trims.Load(),
		DeltaSnapshots:       l.deltaSnaps.Load(),
		Rebases:              l.rebases.Load(),
		AppendedBytes:        l.bytes.Load(),
		SnapshotBytesWritten: l.snapBytes.Load(),
		DurableLSN:           l.durableLSN.Load(),
		LastLSN:              l.lastLSN(),
	}
}

// WritePrometheus renders the summary in Prometheus text exposition format
// under the zmsq_wal_ namespace, returning the first write error.
func (s Stats) WritePrometheus(w io.Writer) error {
	p := metrics.NewPromWriter(w)
	p.Counter("zmsq_wal_ops_total", "logged operations (batch members each count)", s.Ops)
	p.Counter("zmsq_wal_records_total", "appended records", s.Records)
	p.Counter("zmsq_wal_syncs_total", "completed fsyncs (ops/syncs is the group-commit factor)", s.Syncs)
	p.Counter("zmsq_wal_snapshots_total", "completed online snapshots", s.Snapshots)
	p.Counter("zmsq_wal_rebases_total", "snapshots that rebased the delta chain", s.Rebases)
	p.Counter("zmsq_wal_appended_bytes_total", "record bytes appended", uint64(s.AppendedBytes))
	p.Counter("zmsq_wal_snapshot_bytes_total", "snapshot bytes written (base + delta files)", uint64(s.SnapshotBytesWritten))
	p.Gauge("zmsq_wal_durable_lsn", "highest LSN covered by a completed fsync", float64(s.DurableLSN))
	p.Gauge("zmsq_wal_last_lsn", "highest LSN assigned", float64(s.LastLSN))
	return p.Err()
}

func (l *Log) lastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// DurableLSN returns the highest LSN covered by a completed fsync.
func (l *Log) DurableLSN() uint64 { return l.durableLSN.Load() }

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

// Dir returns the durability directory.
func (l *Log) Dir() string { return l.dir }
