package sharded

import (
	"repro/internal/core"
	"repro/internal/wal"
)

// Durability for the sharded front-end. The shards share ONE write-ahead
// log: Config.Queue.Durability (or an external Config.Queue.WAL policy)
// is resolved once in Open and attached to every shard, so all mutations
// — whichever shard they land on — interleave in a single LSN space.
// Recovery therefore needs no per-shard log merging: Open replays the one
// log and re-inserts the union multiset, which the front-end
// redistributes by its normal thread-affine placement. The composed
// S·(Batch+1) relaxation window is a property of the extraction policy,
// not of which shard holds which key, so the rebuilt queue honors the
// same window contract as the crashed one.

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
	q, _, err := Open(cfg, core.Options[V]{Codec: codec})
	return q, err
}

// RecoverCodec is Open.
//
// Deprecated: use Open.
func RecoverCodec[V any](cfg Config, codec wal.Codec[V]) (*Queue[V], *wal.State, error) {
	return Open(cfg, core.Options[V]{Codec: codec})
}
