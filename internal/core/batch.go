package core

import "runtime"

// This file implements the batch-native API. Batching is the biggest
// engineering lever for relaxed-PQ throughput ("Engineering MultiQueues",
// Williams & Sanders): one InsertBatch or ExtractBatch call amortizes the
// per-operation overheads — context acquisition, pool-slot handoff, root
// lock traffic — across the whole batch while observing exactly the same
// relaxation contract as the equivalent sequence of single-element calls.

// InsertBatch adds every (keys[i], vals[i]) pair to the queue. vals may be
// nil, in which case zero-valued payloads are inserted; otherwise len(vals)
// must equal len(keys) or InsertBatch panics. The elements become visible
// one at a time, exactly as if Insert had been called in a loop, but the
// whole batch shares one operation context, so the per-call setup cost is
// paid once.
func (q *Queue[V]) InsertBatch(keys []uint64, vals []V) {
	if len(keys) == 0 {
		return
	}
	if vals != nil && len(vals) != len(keys) {
		panic("zmsq: InsertBatch called with len(vals) != len(keys)")
	}
	ctx := q.getCtx()
	for i, k := range keys {
		e := element[V]{key: k}
		if vals != nil {
			e.val = vals[i]
		}
		q.insert(ctx, e)
	}
	q.putCtx(ctx)
}

// ExtractBatch removes up to n high-priority elements, appending them to
// dst and returning the extended slice. It never blocks: fewer than n
// appended elements means the queue was observed empty (under the root
// lock, so the observation is exact). Passing a dst with spare capacity
// makes steady-state batch extraction allocation-free.
//
// Relaxation is identical to n sequential TryExtractMax calls: pool elements
// are claimed first, and a root refill hands the caller at most Batch+1
// elements (the root maximum — the true queue maximum at that instant —
// first), so every b+1 window of the extraction sequence still contains a
// true maximum. With Batch = 0 the grabs degenerate to one element each
// and the extraction order is strict. What a batch saves is the handoff:
// elements taken directly from the root skip the pool's per-slot
// full-flag protocol entirely.
func (q *Queue[V]) ExtractBatch(dst []Element[V], n int) []Element[V] {
	if n <= 0 {
		return dst
	}
	ctx := q.getCtx()
	defer q.putCtx(ctx)
	return q.extractBatch(ctx, dst, n)
}

func (q *Queue[V]) extractBatch(ctx *opCtx[V], dst []Element[V], n int) []Element[V] {
	need := n
	for attempt := 0; need > 0; attempt++ {
		if q.batch > 0 {
			if k, v, ok := q.extractFromPool(ctx); ok {
				dst = append(dst, Element[V]{Key: k, Val: v})
				need--
				attempt = 0
				continue
			}
		}
		// Force a blocking root acquisition periodically so an unlucky
		// trylocker cannot spin forever behind a stream of refillers.
		var got int
		var st extractStatus
		dst, got, st = q.extractManyFromRoot(ctx, dst, need, attempt >= 16)
		switch st {
		case extractGot:
			need -= got
			attempt = 0
		case extractEmpty:
			return dst
		case extractRaced:
			runtime.Gosched()
		}
	}
	return dst
}

// extractManyFromRoot moves up to min(need, batch+1) elements of the
// locked root straight into dst — largest first — and repairs the
// invariant downward; see lockRoot for the raced and empty outcomes. The
// batch+1 cap matches what one pool refill cycle moves out of the root
// (one element for the refiller plus batch for the pool), which is what
// keeps the b+1 window guarantee intact across batch extractions.
func (q *Queue[V]) extractManyFromRoot(ctx *opCtx[V], dst []Element[V], need int, force bool) ([]Element[V], int, extractStatus) {
	root, cnt, st := q.lockRoot(ctx, force)
	if st != extractGot {
		return dst, 0, st
	}
	m := int(min(int64(need), int64(q.batch+1), cnt))
	ctx.scratch = root.set.takeTop(&ctx.al, m, ctx.scratch[:0])
	for i := m - 1; i >= 0; i-- {
		dst = append(dst, Element[V]{Key: ctx.scratch[i].key, Val: ctx.scratch[i].val})
		ctx.scratch[i] = element[V]{}
	}
	q.releaseRoot(ctx, root, cnt-int64(m), m)
	if met := q.met; met != nil {
		met.BatchGrabSize.Observe(ctx.al.shard, uint64(m))
	}
	return dst, m, extractGot
}
