package sharded

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/wal"
)

// Durability lives in this layer alone. The core queue has no log: Open
// reads Config.Queue.Durability, opens ONE write-ahead log for all the
// shards, and the front-end logs at its own operation boundaries, so every
// mutation — whichever shard it lands on — takes its place in a single LSN
// space and recovery needs no per-shard log merging. Each Insert,
// InsertBatch, TryExtractMax and ExtractBatch call, through the queue or a
// Handle, writes one record.
//
// Ordering contract (what makes replay sound): inserted keys are appended
// BEFORE they reach a shard, where a consumer could see them, and extracted
// keys AFTER the shard has physically removed them, so in the log every
// element's insert record precedes any extract record for it, and every
// durable prefix replays to a well-formed multiset.
//
// Recovery re-inserts the whole recovered multiset with one bare
// InsertBatch on the opening context's home shard — every key lands on that
// one shard, and the extraction side (choice-of-two, sweeps, stealing)
// serves it from there. The composed S·(Batch+1) relaxation window is a
// property of the extraction policy, not of which shard holds which key,
// so the rebuilt queue honors the same window contract as the crashed one.

// Options carries the construction inputs Config cannot: all are generic
// over the payload type V or are not configuration. The zero value is a
// private allocation domain, key-only logging and the operating system's
// files.
type Options[V any] struct {
	// Domain, when non-nil, is the allocation domain every shard's list
	// blocks recycle through (core.Options.Domain); several queues opened
	// over one domain share one freelist. nil builds a private domain.
	Domain *core.AllocDomain[V]
	// Codec, when non-nil, encodes payloads for the log: inserts log each
	// element's encoded value alongside its key (wal record format v2) and
	// Open decodes recovered payloads back through it. nil logs key-only
	// v1 records — bit-identical on disk to the pre-payload format — and
	// recovers zero values.
	Codec wal.Codec[V]
	// FS carries every file call the log makes (wal.Options.FS); nil means
	// the operating system. The crash harness passes a crash model here.
	FS wal.FS
}

// Durability sentinel errors, returned (wrapped) by Config.Validate and
// Open.
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
)

// validateDurability is the Config.Validate arm for Queue.Durability.
func validateDurability(d *core.DurabilityConfig) error {
	if d == nil {
		return nil
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

// openLog opens the log d describes, recovering the directory while it
// does, and decodes the recovered payloads through opts.Codec into values
// aligned with State.Keys (nil for a key-only directory: zero values).
// Without d.WAL it opens nothing. Payload bytes without a codec are an
// error — recovery must not silently discard durably acknowledged data —
// and a log opened before any error is closed again.
func openLog[V any](d *core.DurabilityConfig, opts Options[V]) (*wal.Log, *wal.State, []V, error) {
	if d == nil || !d.WAL {
		return nil, nil, nil, nil
	}
	l, st, err := wal.Open(wal.Options{
		Dir:           d.Dir,
		GroupCommit:   d.GroupCommit,
		SnapshotBytes: d.SnapshotBytes,
		FS:            opts.FS,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	vals, err := decodeRecovered(st, opts.Codec)
	if err != nil {
		l.Close()
		return nil, nil, nil, err
	}
	return l, st, vals, nil
}

// decodeRecovered is openLog's decoding step: st's payload bytes as the
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

// logScratch is a context's logging scratch; it grows to steady state on
// the first calls and is reused after, so durable operations do not
// allocate. k1 backs the one-element key slice Insert and single
// extractions log; keys holds an ExtractBatch's keys; enc is the arena the
// codec appends encoded payloads into, ends the end offset of each member
// in it, and views the per-member slices handed to AppendInserts. The log
// copies the bytes before it returns.
type logScratch struct {
	k1    [1]uint64
	keys  []uint64
	enc   []byte
	ends  []int
	views [][]byte
}

// logInserts logs inserted keys as one record; call it before any element
// reaches a shard. With no payloads to carry (vals == nil inserts zero
// values, which is exactly what a key-only record recovers to) or no codec
// it is the v1 key-only record.
func (q *Queue[V]) logInserts(c *opCtx, keys []uint64, vals []V) {
	if vals != nil && len(vals) != len(keys) {
		panic("zmsq: InsertBatch called with len(vals) != len(keys)")
	}
	var enc [][]byte
	if q.codec != nil && vals != nil {
		s := &c.log
		s.enc, s.ends = s.enc[:0], s.ends[:0]
		for _, v := range vals {
			s.enc = q.codec.Append(s.enc, v)
			s.ends = append(s.ends, len(s.enc))
		}
		// The arena may move while it grows, so the views are cut only
		// after the last encode.
		s.views = s.views[:0]
		prev := 0
		for _, end := range s.ends {
			s.views = append(s.views, s.enc[prev:end:end])
			prev = end
		}
		enc = s.views
	}
	q.wal.AppendInserts(keys, enc)
}

// logExtracts logs the keys of els as one record; call it after the
// elements have left their shards.
func (q *Queue[V]) logExtracts(c *opCtx, els []core.Element[V]) {
	c.log.keys = c.log.keys[:0]
	for _, e := range els {
		c.log.keys = append(c.log.keys, e.Key)
	}
	q.wal.AppendExtracts(c.log.keys)
}

// SyncWAL makes every operation that returned before the call durable,
// across all shards (they share the log, so one sync covers everything).
// No-op without a WAL.
func (q *Queue[V]) SyncWAL() error {
	if q.wal == nil {
		return nil
	}
	return q.wal.Sync()
}

// CloseWAL syncs and closes the log. It is separate from Close because
// Close does not end the queue's life: Insert stays legal after Close,
// and a shutdown drain's extracts must still be logged. Call it last,
// after the final drain. No-op without a WAL.
func (q *Queue[V]) CloseWAL() error {
	if q.wal == nil {
		return nil
	}
	return q.wal.Close()
}

// WALStats reports the log's activity counters (ok=false without a WAL).
func (q *Queue[V]) WALStats() (wal.Stats, bool) {
	if q.wal == nil {
		return wal.Stats{}, false
	}
	return q.wal.Stats(), true
}

// The three pre-Open names the frozen bench/ module compiles against; they
// go at its next refresh (ROADMAP 3e).

// NewDurable is Open without a codec, the recovered state dropped.
//
// Deprecated: use Open.
func NewDurable[V any](cfg Config) (*Queue[V], error) { return NewDurableCodec[V](cfg, nil) }

// NewDurableCodec is Open with the recovered state dropped.
//
// Deprecated: use Open.
func NewDurableCodec[V any](cfg Config, codec wal.Codec[V]) (*Queue[V], error) {
	q, _, err := Open(cfg, Options[V]{Codec: codec})
	return q, err
}

// RecoverCodec is Open.
//
// Deprecated: use Open.
func RecoverCodec[V any](cfg Config, codec wal.Codec[V]) (*Queue[V], *wal.State, error) {
	return Open(cfg, Options[V]{Codec: codec})
}
