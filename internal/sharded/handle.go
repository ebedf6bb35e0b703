package sharded

import "repro/internal/core"

// Handle is a caller-owned operation context: what the queue's own methods
// borrow from a sync.Pool for the length of one call, a Handle keeps. The
// pool forgets a context no call has used across two garbage collections,
// and the replacement is homed on the next shard; for a caller with a
// session of its own — a server connection — that made where its inserts
// land depend on when the collector last ran. A Handle's home shard, RNG
// stream and sweep counter last as long as the Handle. It is not safe for
// concurrent use; the queue is, so any number of Handles and pooled calls
// may run side by side.
type Handle[V any] struct {
	q *Queue[V]
	c *opCtx
}

// NewHandle returns a Handle homed on the next shard in turn.
func (q *Queue[V]) NewHandle() *Handle[V] {
	return &Handle[V]{q: q, c: q.newCtx()}
}

// InsertBatch is Queue.InsertBatch on the Handle's context.
func (h *Handle[V]) InsertBatch(keys []uint64, vals []V) {
	if len(keys) > 0 {
		h.q.insertBatch(h.c, keys, vals)
	}
}

// TryExtractMax is Queue.TryExtractMax on the Handle's context.
func (h *Handle[V]) TryExtractMax() (uint64, V, bool) { return h.q.extractOne(h.c) }

// ExtractBatch is Queue.ExtractBatch on the Handle's context.
func (h *Handle[V]) ExtractBatch(dst []core.Element[V], n int) []core.Element[V] {
	return h.q.extractBatch(h.c, dst, n)
}
