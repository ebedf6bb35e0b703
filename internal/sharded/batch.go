package sharded

import "repro/internal/core"

// InsertBatch adds every (keys[i], vals[i]) pair. vals may be nil for
// zero-valued payloads; otherwise len(vals) must equal len(keys). The whole
// batch lands on the calling context's home shard through the shard's own
// batch-native path, so the per-call setup cost is paid once and the
// thread-affinity of single inserts is preserved.
func (q *Queue[V]) InsertBatch(keys []uint64, vals []V) {
	if len(keys) == 0 {
		return
	}
	c := q.getCtx()
	q.shards[c.home].q.InsertBatch(keys, vals)
	q.putCtx(c)
}

// ExtractBatch removes up to n high-priority elements, appending them to
// dst. Each element goes through the same shard-selection policy as a
// single ExtractMax — including the periodic full sweep — so the composed
// S·(Batch+1) window contract is identical to n sequential calls; what the
// batch saves is context acquisition.
func (q *Queue[V]) ExtractBatch(dst []core.Element[V], n int) []core.Element[V] {
	if n <= 0 {
		return dst
	}
	c := q.getCtx()
	defer q.putCtx(c)
	return q.extractBatch(c, dst, n)
}

func (q *Queue[V]) extractBatch(c *opCtx, dst []core.Element[V], n int) []core.Element[V] {
	for i := 0; i < n; i++ {
		k, v, ok := q.tryExtract(c)
		if !ok {
			return dst
		}
		dst = append(dst, core.Element[V]{Key: k, Val: v})
	}
	return dst
}
