package core

import (
	"runtime"

	"repro/internal/fault"
)

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
// paid once. In blocking mode, sleeping consumers are woken once per
// element after the batch is physically inserted.
func (q *Queue[V]) InsertBatch(keys []uint64, vals []V) {
	if len(keys) == 0 {
		return
	}
	if vals != nil && len(vals) != len(keys) {
		panic("zmsq: InsertBatch called with len(vals) != len(keys)")
	}
	ctx := q.getCtx()
	if q.wal != nil {
		// One record for the whole batch, logged before any element
		// becomes visible — the group-commit amortization lever. With no
		// payloads to carry (vals == nil inserts zero values, which is
		// exactly what a key-only record recovers to) or no codec it is
		// the v1 key-only record, bit-identical to pre-codec logs.
		var enc [][]byte
		if q.codec != nil && vals != nil {
			enc = q.encodeVals(ctx, vals)
		}
		q.wal.AppendInserts(keys, enc)
	}
	for i, k := range keys {
		e := element[V]{key: k}
		if vals != nil {
			e.val = vals[i]
		}
		q.insert(ctx, e)
	}
	q.putCtx(ctx)
	if q.ring != nil {
		// Signal strictly after the elements are physically inserted, so a
		// woken consumer's extraction cannot observe an empty queue.
		for range keys {
			q.ring.Signal()
		}
	}
}

// encodeVals encodes every payload into the context's arena (appends can
// grow/move it, so the member views are sliced out only after the last
// encode) and returns the views, aligned with vals. They alias the
// context's scratch: the WAL copies the bytes before returning, and the
// next batch overwrites them.
func (q *Queue[V]) encodeVals(ctx *opCtx[V], vals []V) [][]byte {
	ctx.venc = ctx.venc[:0]
	ctx.voffs = ctx.voffs[:0]
	for _, v := range vals {
		ctx.venc = q.codec.Append(ctx.venc, v)
		ctx.voffs = append(ctx.voffs, len(ctx.venc))
	}
	ctx.vptrs = ctx.vptrs[:0]
	prev := 0
	for _, end := range ctx.voffs {
		ctx.vptrs = append(ctx.vptrs, ctx.venc[prev:end:end])
		prev = end
	}
	return ctx.vptrs
}

// ExtractBatch removes up to n high-priority elements, appending them to
// dst and returning the extended slice. It never blocks: fewer than n
// appended elements means the queue was observed empty (under the root
// lock, so the observation is exact). Passing a dst with spare capacity
// makes steady-state batch extraction allocation-free.
//
// Relaxation is identical to n sequential ExtractMax calls: pool elements
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
	start := len(dst)
	dst = q.extractBatch(ctx, dst, n)
	if q.wal != nil && len(dst) > start {
		// Log after the elements are physically removed, as one batch
		// record covering everything this call took.
		ctx.wkeys = ctx.wkeys[:0]
		for _, e := range dst[start:] {
			ctx.wkeys = append(ctx.wkeys, e.Key)
		}
		q.wal.AppendExtracts(ctx.wkeys)
	}
	return dst
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

// extractManyFromRoot locks the root and either (a) discovers a concurrent
// refill and retries, (b) observes a truly empty queue, or (c) moves up to
// min(need, batch+1) elements straight into dst — largest first — and
// repairs the invariant downward. The batch+1 cap matches what one pool
// refill cycle moves out of the root (one element for the refiller plus
// batch for the pool), which is what keeps the b+1 window guarantee intact
// across batch extractions.
func (q *Queue[V]) extractManyFromRoot(ctx *opCtx[V], dst []Element[V], need int, force bool) ([]Element[V], int, extractStatus) {
	root := q.root()
	ctx.protect(0, root)
	if q.useTry && !force {
		// Chaos hook: a forced trylock failure behaves exactly like losing
		// the race to a concurrent refiller; see extractFromRoot.
		if q.faults != nil && q.faults.Fire(fault.TryLock) {
			q.countRaced(ctx)
			return dst, 0, extractRaced
		}
		if !root.lock.TryLock() {
			q.countRaced(ctx)
			return dst, 0, extractRaced
		}
	} else {
		root.lock.Lock()
	}
	if q.pool != nil && q.pool.occupancy() > 0 {
		// Someone refilled between our pool miss and taking the lock.
		root.lock.Unlock()
		q.countRaced(ctx)
		return dst, 0, extractRaced
	}
	cnt := root.count.Load()
	if cnt == 0 {
		root.lock.Unlock()
		if m := q.met; m != nil {
			m.ExtractEmpty.Inc(ctx.al.shard)
		}
		return dst, 0, extractEmpty
	}
	m := need
	if m > q.batch+1 {
		m = q.batch + 1
	}
	if int64(m) > cnt {
		m = int(cnt)
	}
	ctx.scratch = root.set.takeTop(&ctx.al, m, ctx.scratch[:0])
	for i := m - 1; i >= 0; i-- {
		dst = append(dst, Element[V]{Key: ctx.scratch[i].key, Val: ctx.scratch[i].val})
		ctx.scratch[i] = element[V]{}
	}
	cnt -= int64(m)
	root.count.Store(cnt)
	if cnt > 0 {
		root.max.Store(root.set.maxKey())
	}
	q.swapDown(ctx, 0, 0) // repairs invariant and unlocks the root chain
	if met := q.met; met != nil {
		met.ExtractRootElems.Add(ctx.al.shard, uint64(m))
		met.BatchGrabSize.Observe(ctx.al.shard, uint64(m))
		if ctx.sctr++; ctx.sctr&(rankSampleEvery-1) == 0 {
			// The grab's first element is the root maximum: rank 0.
			met.RankError.Observe(ctx.al.shard, 0)
		}
	}
	return dst, m, extractGot
}
