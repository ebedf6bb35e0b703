package core

import "runtime"

// This file implements Listing 2 of the paper: pool claims by
// fetch-and-decrement, pool refill from the root (reserving the maximum for
// the refilling caller), and the downward set-swapping that restores the
// mound invariant. With batch == 0 the pool is absent and TryExtractMax is
// the strict mound extraction.

type extractStatus int

const (
	extractGot extractStatus = iota
	extractEmpty
	extractRaced
)

// TryExtractMax removes and returns a high-priority element without
// blocking. ok is false only if the queue was observed empty — under the
// root lock, so the observation is exact: extraction never fails while the
// queue is nonempty (§3.7).
func (q *Queue[V]) TryExtractMax() (key uint64, val V, ok bool) {
	ctx := q.getCtx()
	key, val, ok = q.tryExtract(ctx)
	q.putCtx(ctx)
	return key, val, ok
}

func (q *Queue[V]) tryExtract(ctx *opCtx[V]) (uint64, V, bool) {
	for attempt := 0; ; attempt++ {
		if q.batch > 0 {
			if k, v, ok := q.extractFromPool(ctx); ok {
				return k, v, true
			}
		}
		// Force a blocking root acquisition periodically so an unlucky
		// trylocker cannot spin forever behind a stream of refillers.
		force := attempt >= 16
		k, v, st := q.extractFromRoot(ctx, force)
		switch st {
		case extractGot:
			return k, v, true
		case extractEmpty:
			var zero V
			return 0, zero, false
		case extractRaced:
			runtime.Gosched()
		}
	}
}

// countRaced records a lost extraction race (trylock miss or a refill
// landing between the pool miss and the root lock).
func (q *Queue[V]) countRaced(ctx *opCtx[V]) {
	if m := q.met; m != nil {
		m.ExtractRaced.Inc(ctx.al.shard)
	}
}

// extractFromPool claims one element through the pool policy and records
// the extraction metrics (the policy reports the claim's refill-time rank
// estimate for the sampled RankError histogram).
func (q *Queue[V]) extractFromPool(ctx *opCtx[V]) (uint64, V, bool) {
	k, v, rank, ok := q.pool.claim()
	if !ok {
		var zero V
		return 0, zero, false
	}
	if m := q.met; m != nil {
		m.ExtractPoolHit.Inc(ctx.al.shard)
		if ctx.sctr++; ctx.sctr&(rankSampleEvery-1) == 0 {
			m.RankError.Observe(ctx.al.shard, uint64(rank))
		}
	}
	return k, v, true
}

// lockRoot is how both root extraction paths begin. It publishes a hazard
// pointer on the root and takes its lock — a trylock unless the queue has
// trylocks off or the caller forces a blocking acquisition — and then
// either (a) discovers a concurrent refill, or loses the trylock, and
// reports extractRaced, (b) observes a truly empty queue (under the lock,
// so the observation is exact) and reports extractEmpty, both with the
// root unlocked, or (c) reports extractGot with the root locked and
// returns its element count, which is then > 0.
func (q *Queue[V]) lockRoot(ctx *opCtx[V], force bool) (*tnode[V], int64, extractStatus) {
	root := q.root()
	ctx.protect(0, root)
	if q.useTry && !force {
		// Chaos hook: a forced trylock failure behaves exactly like losing
		// the race to a concurrent refiller. The force path (attempt >= 16)
		// deliberately bypasses injection so progress is never starved.
		if (q.faults != nil && q.faults.FailTryLock()) || !root.lock.TryLock() {
			// Likely a concurrent refill; go back to the pool.
			q.countRaced(ctx)
			return nil, 0, extractRaced
		}
	} else {
		root.lock.Lock()
	}
	if q.pool != nil && q.pool.occupancy() > 0 {
		// Someone refilled between our pool miss and taking the lock.
		root.lock.Unlock()
		q.countRaced(ctx)
		return nil, 0, extractRaced
	}
	cnt := root.count.Load()
	if cnt == 0 {
		root.lock.Unlock()
		if m := q.met; m != nil {
			m.ExtractEmpty.Inc(ctx.al.shard)
		}
		return nil, 0, extractEmpty
	}
	return root, cnt, extractGot
}

// releaseRoot is how both root extraction paths end, once taken elements
// have left the locked root and cnt remain: it publishes the root's new
// count and max, repairs the invariant downward — unlocking the root chain
// — and counts the taken elements, the first of which was the root
// maximum.
func (q *Queue[V]) releaseRoot(ctx *opCtx[V], root *tnode[V], cnt int64, taken int) {
	root.count.Store(cnt)
	if cnt > 0 {
		root.max.Store(root.set.maxKey(&ctx.al))
	}
	q.swapDown(ctx, 0, 0)
	if m := q.met; m != nil {
		m.ExtractRootElems.Add(ctx.al.shard, uint64(taken))
		if ctx.sctr++; ctx.sctr&(rankSampleEvery-1) == 0 {
			// The root maximum is rank 0 by construction.
			m.RankError.Observe(ctx.al.shard, 0)
		}
	}
}

// extractFromRoot takes the locked root's maximum for the caller, moves up
// to batch further elements into the pool, and repairs the invariant
// downward; see lockRoot for the raced and empty outcomes.
func (q *Queue[V]) extractFromRoot(ctx *opCtx[V], force bool) (uint64, V, extractStatus) {
	root, cnt, st := q.lockRoot(ctx, force)
	if st != extractGot {
		var zero V
		return 0, zero, st
	}
	e := root.set.removeMax(&ctx.al)
	cnt--
	if q.pool != nil && cnt > 0 {
		n := int(min(cnt, int64(q.batch)))
		// Wait for lagging consumers: a slot claimed in a previous round
		// may not have been read yet (prepare), then move the next n
		// largest root elements into the pool and publish them.
		q.pool.prepare(n)
		ctx.scratch = root.set.takeTop(&ctx.al, n, ctx.scratch[:0])
		q.pool.publish(ctx.scratch)
		cnt -= int64(n)
		if m := q.met; m != nil {
			m.PoolRefills.Inc(ctx.al.shard)
			m.PoolRefillSize.Observe(ctx.al.shard, uint64(n))
		}
	}
	q.releaseRoot(ctx, root, cnt, 1)
	return e.key, e.val, extractGot
}

// swapDown restores the mound invariant starting at the locked node
// (level, slot): while a child's max exceeds the node's, the node's set is
// exchanged with the larger child's and repair recurses into that child.
// Locks are acquired parent-before-children (hand-over-hand downward), the
// global lock order, so no deadlock is possible. The node's lock is
// released before returning.
func (q *Queue[V]) swapDown(ctx *opCtx[V], level, slot int) {
	n := q.node(level, slot)
	for {
		if int32(level) >= q.leafLevel.Load() {
			n.lock.Unlock()
			return
		}
		lSlot, rSlot := 2*slot, 2*slot+1
		l := q.node(level+1, lSlot)
		r := q.node(level+1, rSlot)
		l.lock.Lock()
		r.lock.Lock()

		// Pick the child with the larger max (empty compares as -inf).
		c, cSlot := l, lSlot
		if r.count.Load() > 0 && (l.count.Load() == 0 || r.max.Load() > l.max.Load()) {
			c, cSlot = r, rSlot
		}
		if c.count.Load() == 0 ||
			(n.count.Load() > 0 && n.max.Load() >= c.max.Load()) {
			r.lock.Unlock()
			l.lock.Unlock()
			n.lock.Unlock()
			return
		}
		swapContents(n, c)
		if m := q.met; m != nil {
			m.SwapDownMoves.Inc(ctx.al.shard)
		}
		if c == l {
			r.lock.Unlock()
		} else {
			l.lock.Unlock()
		}
		n.lock.Unlock()
		n, level, slot = c, level+1, cSlot
	}
}

// Element is one key/value pair handed back by Drain and CloseAndDrain.
type Element[V any] struct {
	Key uint64
	Val V
}

// Drain removes every element — tree contents plus unclaimed pool entries —
// returning them in extraction order. It is safe concurrently with other
// operations (it is a loop of ordinary extractions); concurrent inserts may
// extend the drain.
func (q *Queue[V]) Drain() []Element[V] {
	var out []Element[V]
	for {
		k, v, ok := q.TryExtractMax()
		if !ok {
			return out
		}
		out = append(out, Element[V]{Key: k, Val: v})
	}
}

// CloseAndDrain closes the queue and returns every remaining element
// instead of stranding them. Consumers
// racing the drain simply take some of the elements themselves: each
// element goes to exactly one taker. Like Close it is idempotent; a second
// call returns whatever was inserted since the first drain.
func (q *Queue[V]) CloseAndDrain() []Element[V] {
	q.Close()
	return q.Drain()
}

// PeekMax returns an advisory snapshot of the highest-priority key without
// removing anything. Under concurrency the value may be stale by the time
// the caller acts on it; with the queue quiescent it is exact (the larger
// of the root's cached max and the pool's top unclaimed entry). ok is
// false when the queue appears empty.
func (q *Queue[V]) PeekMax() (uint64, bool) {
	var best uint64
	found := false
	if q.pool != nil {
		if k, ok := q.pool.peek(); ok {
			best = k
			found = true
		}
	}
	root := q.root()
	if root.count.Load() > 0 {
		if m := root.max.Load(); !found || m > best {
			best = m
			found = true
		}
	}
	return best, found
}
