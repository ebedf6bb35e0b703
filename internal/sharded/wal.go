package sharded

import (
	"errors"

	"repro/internal/core"
	"repro/internal/wal"
)

// Durability for the sharded front-end. The shards share ONE write-ahead
// log: Config.Queue.Durability (or an external Config.Queue.WAL policy)
// is resolved once in New and threaded through every shard as its
// core.Config.WAL, so all mutations — whichever shard they land on —
// interleave in a single LSN space. Recovery therefore needs no
// per-shard log merging: sharded.Recover replays the one log and
// re-inserts the union multiset, which the front-end redistributes by
// its normal thread-affine placement. The composed S·(Batch+1)
// relaxation window is a property of the extraction policy, not of
// which shard holds which key, so the rebuilt queue honors the same
// window contract as the crashed one.

// openSharedWAL resolves cfg's durability choice into the one policy all
// shards will share. Mirrors core's resolution: an external policy is
// passed through un-owned; a DurabilityConfig opens a queue-owned log.
func openSharedWAL(cfg Config) (w core.WALPolicy, owned bool, err error) {
	if cfg.Queue.WAL != nil {
		return cfg.Queue.WAL, false, nil
	}
	if d := cfg.Queue.Durability; d != nil && d.WAL {
		l, err := wal.Open(wal.Options{
			Dir:           d.Dir,
			GroupCommit:   d.GroupCommit,
			SnapshotBytes: d.SnapshotBytes,
			Seed:          cfg.Queue.Seed,
			Faults:        cfg.Queue.Faults,
		})
		if err != nil {
			return nil, false, err
		}
		return l, true, nil
	}
	return nil, false, nil
}

// NewDurable is New with errors instead of panics for the durability
// subsystem (invalid config, or I/O failure opening the log): the log is
// opened first, the queue built bare, and the policy attached — the same
// shape as core.NewDurable and Recover below.
func NewDurable[V any](cfg Config) (*Queue[V], error) {
	return NewDurableWithDomainCodec[V](cfg, nil, nil)
}

// NewDurableWithDomain is NewDurable over a shared allocation domain
// (see NewWithDomain): each durable tenant queue of a multi-tenant
// server gets its own log while all of them share one memory-reclamation
// substrate. A nil ad builds a private domain.
func NewDurableWithDomain[V any](cfg Config, ad *core.AllocDomain[V]) (*Queue[V], error) {
	return NewDurableWithDomainCodec[V](cfg, ad, nil)
}

// NewDurableCodec is NewDurable with a payload codec: every shard logs
// its inserts' encoded values (wal record format v2) through the shared
// log, so RecoverCodec restores them byte-exactly. A nil codec is
// exactly NewDurable — key-only v1 records.
func NewDurableCodec[V any](cfg Config, codec wal.Codec[V]) (*Queue[V], error) {
	return NewDurableWithDomainCodec[V](cfg, nil, codec)
}

// NewDurableWithDomainCodec combines the shared allocation domain with
// the payload codec — the shape the multi-tenant server uses: tenants
// share one domain, each owns a log, and every tenant's values ride its
// own log's records.
func NewDurableWithDomainCodec[V any](cfg Config, ad *core.AllocDomain[V], codec wal.Codec[V]) (*Queue[V], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, owned, err := openSharedWAL(cfg)
	if err != nil {
		return nil, err
	}
	bare := cfg
	bare.Queue.Durability = nil
	bare.Queue.WAL = nil
	q := NewWithDomain[V](bare, ad)
	if w != nil {
		for i := range q.shards {
			q.shards[i].q.AttachCodec(codec)
			q.shards[i].q.AttachWAL(w, false)
		}
		q.wal, q.walOwned = w, owned
	}
	return q, nil
}

// AttachCodec attaches the payload codec to every shard, for callers
// that build the queue with an external Config.Queue.WAL policy (the
// crash harness) rather than through NewDurableCodec. Like the core
// method it must be called before the queue is shared.
func (q *Queue[V]) AttachCodec(c wal.Codec[V]) {
	for i := range q.shards {
		q.shards[i].q.AttachCodec(c)
	}
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

// CloseWAL releases the durability subsystem: a front-end-owned log is
// synced and closed, an external policy synced only. Call it after the
// final drain — Close does not end the queue's life, and drain extracts
// must still be logged.
func (q *Queue[V]) CloseWAL() error {
	if q.wal == nil {
		return nil
	}
	if q.walOwned {
		return q.wal.Close()
	}
	return q.wal.Sync()
}

// WALStats reports the shared wal.Log's activity counters, when the
// policy is one (ok=false otherwise, including without a WAL).
func (q *Queue[V]) WALStats() (wal.Stats, bool) {
	if l, ok := q.wal.(*wal.Log); ok {
		return l.Stats(), true
	}
	return wal.Stats{}, false
}

// Recover rebuilds a durable sharded queue from cfg.Queue.Durability.Dir:
// the durable key multiset is recovered from snapshot + log, re-inserted
// bare (not re-logged — the keys are already in the log), and the
// reopened log attached as the shared shard policy. See core.Recover for
// the single-queue version and the ordering argument.
func Recover[V any](cfg Config) (*Queue[V], *wal.State, error) {
	return RecoverWithDomainCodec[V](cfg, nil, nil)
}

// RecoverWithDomain is Recover over a shared allocation domain (see
// NewWithDomain): the recovered multiset is re-inserted bare — before
// the reopened log is attached, so recovery never re-logs what the log
// already holds — into a queue whose shards allocate from ad. A nil ad
// builds a private domain.
func RecoverWithDomain[V any](cfg Config, ad *core.AllocDomain[V]) (*Queue[V], *wal.State, error) {
	return RecoverWithDomainCodec[V](cfg, ad, nil)
}

// RecoverCodec is Recover with a payload codec: each recovered
// instance's logged bytes are decoded and re-inserted with its key, so
// the rebuilt queue holds the durably acknowledged (key, value) pairs.
// Without a codec a valued directory is rejected rather than silently
// stripped — see core.DecodeRecovered.
func RecoverCodec[V any](cfg Config, codec wal.Codec[V]) (*Queue[V], *wal.State, error) {
	return RecoverWithDomainCodec[V](cfg, nil, codec)
}

// RecoverWithDomainCodec combines the shared allocation domain with the
// payload codec, for multi-tenant recovery.
func RecoverWithDomainCodec[V any](cfg Config, ad *core.AllocDomain[V], codec wal.Codec[V]) (*Queue[V], *wal.State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	d := cfg.Queue.Durability
	if d == nil || !d.WAL {
		return nil, nil, errors.New("sharded: Recover needs Config.Queue.Durability with WAL enabled")
	}
	st, err := wal.Recover(d.Dir)
	if err != nil {
		return nil, nil, err
	}
	vals, err := core.DecodeRecovered[V](st, codec)
	if err != nil {
		return nil, nil, err
	}

	bare := cfg
	bare.Queue.Durability = nil
	bare.Queue.WAL = nil
	q := NewWithDomain[V](bare, ad)
	q.InsertBatch(st.Keys, vals)

	l, owned, err := openSharedWAL(cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := range q.shards {
		q.shards[i].q.AttachCodec(codec)
		q.shards[i].q.AttachWAL(l, false)
	}
	q.wal, q.walOwned = l, owned
	return q, st, nil
}
