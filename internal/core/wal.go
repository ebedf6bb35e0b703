package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/wal"
)

// WALPolicy is the durability seam: the queue calls it on every mutation
// and at sync points, and stays oblivious to how (or whether) the records
// reach stable storage. *wal.Log is the real implementation; tests can
// substitute recorders. Like the other construction-time choices
// (SetMode, locks.Kind), it is made once in Config — a nil
// policy compiles every hot-path hook down to a single predictable
// branch, which is what keeps the durability-off paths at 0 allocs/op.
//
// Every append is batch-shaped: Insert and single extractions pass
// one-element slices, InsertBatch and ExtractBatch the whole batch, so
// each call logs as one record (one frame, one LSN).
//
// Ordering contract (what makes replay sound): the queue calls
// AppendInserts BEFORE the elements become visible and AppendExtracts
// AFTER they are physically removed, so in the log every element's
// insert record precedes any extract record for it, and every durable
// prefix replays to a well-formed multiset.
type WALPolicy interface {
	// AppendInserts logs inserted keys. vals nil logs them key-only (wal
	// record format v1); otherwise vals is aligned with keys and carries
	// each payload's encoded bytes (format v2) — the queue passes them
	// when it has a Codec (Options.Codec) and values to log. A nil
	// vals[i] logs an empty payload: the valued record kind is uniform
	// per call, not per member. The bytes are consumed before the call
	// returns, so callers may reuse the backing buffers. Appends do not
	// return errors — durability is only ever promised by Sync, and the
	// implementation must latch failures so a later Sync cannot falsely
	// acknowledge.
	AppendInserts(keys []uint64, vals [][]byte)
	// AppendExtracts logs extracted keys. Extract records are key-only in
	// both formats: replay only needs to know which instance died, and
	// the insert record already carries the bytes.
	AppendExtracts(keys []uint64)
	// Sync makes every append that returned before the call durable.
	Sync() error
	// Close performs a final Sync and releases the policy's resources.
	Close() error
}

// DurabilityConfig asks the queue to own its durability subsystem: Open
// opens the write-ahead log in Dir, recovering whatever Dir holds, and
// the queue logs every mutation through it. See Config.Durability and, for
// the protocol itself, package repro/internal/wal.
type DurabilityConfig struct {
	// WAL enables the write-ahead log. (The struct being non-nil does not
	// by itself enable anything, so a config template can carry the
	// directory layout with durability switched off.)
	WAL bool
	// Dir is the durability directory. Required when WAL is set.
	Dir string
	// GroupCommit is the group-commit fsync interval. Required when WAL
	// is set; wal.DefaultGroupCommit is the recommended value.
	GroupCommit time.Duration
	// SnapshotBytes, when > 0, compacts the log with an online snapshot
	// whenever it grows past this many bytes, reading the log at most this
	// many bytes at a time (wal.Options.SnapshotBytes). Requires WAL.
	SnapshotBytes int64
}

// Durability sentinel errors, returned (wrapped) by Config.Validate.
var (
	// ErrDurabilityDir: DurabilityConfig.WAL is set but Dir is empty.
	ErrDurabilityDir = errors.New("zmsq: durability WAL enabled without a directory")
	// ErrDurabilityGroupCommit: DurabilityConfig.WAL is set but
	// GroupCommit is not positive. There is no implicit default here: the
	// interval is the durability/latency trade-off, and silently picking
	// one would hide the decision the option exists to force.
	ErrDurabilityGroupCommit = errors.New("zmsq: durability WAL enabled without a group-commit interval")
	// ErrSnapshotWithoutWAL: SnapshotBytes is set but WAL is not — a
	// snapshot is a compaction of the log, so there is nothing to
	// snapshot.
	ErrSnapshotWithoutWAL = errors.New("zmsq: durability snapshot requested without the WAL")
	// ErrDurabilityConflict: both Config.Durability (queue-owned log) and
	// Config.WAL (externally owned policy) were set; ownership must be
	// unambiguous.
	ErrDurabilityConflict = errors.New("zmsq: Config.Durability and Config.WAL are both set")
)

// validateDurability is the Config.Validate arm for the durability
// options.
func (c Config) validateDurability() error {
	d := c.Durability
	if d == nil {
		return nil
	}
	if c.WAL != nil && d.WAL {
		return fmt.Errorf("%w; use Durability for a queue-owned log or WAL for an external policy, not both", ErrDurabilityConflict)
	}
	if d.WAL {
		if d.Dir == "" {
			return fmt.Errorf("%w: set Durability.Dir", ErrDurabilityDir)
		}
		if d.GroupCommit <= 0 {
			return fmt.Errorf("%w: Durability.GroupCommit is %v; set it > 0 (wal.DefaultGroupCommit is %v)", ErrDurabilityGroupCommit, d.GroupCommit, wal.DefaultGroupCommit)
		}
	}
	if d.SnapshotBytes < 0 {
		return fmt.Errorf("zmsq: Durability.SnapshotBytes is %d; it must be >= 0", d.SnapshotBytes)
	}
	if d.SnapshotBytes > 0 && !d.WAL {
		return fmt.Errorf("%w: Durability.SnapshotBytes is %d but Durability.WAL is false", ErrSnapshotWithoutWAL, d.SnapshotBytes)
	}
	return nil
}

// OpenLog resolves the durability policy a queue built from cfg logs
// through; core.Open and the sharded front-end, whose shards share one log,
// both start here. Without Config.Durability.WAL it opens nothing and
// returns cfg.WAL — an external policy or nil — with a nil State. With it,
// wal.Open recovers the directory while it opens the log, and the
// recovered payloads are decoded through codec into the returned values,
// aligned with State.Keys (nil for a key-only directory: zero values).
// Payload bytes without a codec are an error — recovery must not silently
// discard durably acknowledged data — and a log opened before any error is
// closed again. A non-nil State means the returned policy is the caller's
// to close.
func OpenLog[V any](cfg Config, codec wal.Codec[V]) (WALPolicy, *wal.State, []V, error) {
	d := cfg.Durability
	if d == nil || !d.WAL {
		return cfg.WAL, nil, nil, nil
	}
	l, st, err := wal.Open(wal.Options{
		Dir:           d.Dir,
		GroupCommit:   d.GroupCommit,
		SnapshotBytes: d.SnapshotBytes,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	vals, err := decodeRecovered(st, codec)
	if err != nil {
		l.Close()
		return nil, nil, nil, err
	}
	return l, st, vals, nil
}

// SyncWAL makes every queue operation that returned before the call
// durable: the acknowledgement point of the durability protocol. It is a
// no-op (nil) without a WAL.
func (q *Queue[V]) SyncWAL() error {
	if q.wal == nil {
		return nil
	}
	return q.wal.Sync()
}

// CloseWAL releases the durability subsystem: a queue-owned log (built
// from Config.Durability) is synced and closed; an externally owned
// policy (Config.WAL) is synced only — its owner closes it. CloseWAL is
// separate from Close because Close does not end the queue's life:
// Insert stays legal after Close, and a shutdown drain's extracts must
// still be logged. Call it last, after the final drain.
func (q *Queue[V]) CloseWAL() error {
	if q.wal == nil {
		return nil
	}
	if q.walOwned {
		return q.wal.Close()
	}
	return q.wal.Sync()
}

// AttachWAL attaches w as the queue's durability policy, un-owned:
// CloseWAL syncs it and whoever built it closes it. It is the seam the
// sharded front-end needs — its shards are built bare, take the recovered
// elements WITHOUT logging them (they are already in the log), and only
// then attach the one log they share. It must be called before the queue
// is shared; attaching mid-traffic would split operations across the
// attachment unsoundly.
func (q *Queue[V]) AttachWAL(w WALPolicy) {
	if q.wal != nil {
		panic("zmsq: AttachWAL on a queue that already has a WAL")
	}
	q.wal = w
}

// WALStats reports the underlying wal.Log's activity counters, when the
// attached policy is one (ok=false otherwise, including without a WAL).
func (q *Queue[V]) WALStats() (wal.Stats, bool) {
	if l, ok := q.wal.(*wal.Log); ok {
		return l.Stats(), true
	}
	return wal.Stats{}, false
}

// decodeRecovered is OpenLog's decoding step: st's payload bytes as the
// value slice InsertBatch wants.
func decodeRecovered[V any](st *wal.State, codec wal.Codec[V]) ([]V, error) {
	if st.Vals == nil {
		return nil, nil
	}
	if codec == nil {
		return nil, errors.New("zmsq: recovered state carries value payloads but no codec is configured; set Options.Codec")
	}
	vals := make([]V, len(st.Keys))
	for i, b := range st.Vals {
		if b == nil {
			continue // payload-less instance: zero value
		}
		v, err := codec.Decode(b)
		if err != nil {
			return nil, fmt.Errorf("zmsq: recover: decoding payload of key %d: %w", st.Keys[i], err)
		}
		vals[i] = v
	}
	return vals, nil
}
