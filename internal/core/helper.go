package core

import (
	"time"
)

// This file implements the paper's first future-work item (§5): "the use
// of helper threads to improve the quality of sets in the ZMSQ". The
// helper is a background goroutine that repeatedly picks a random
// non-leaf node and, when its set has fallen below targetLen, refills it
// by pulling the largest elements up from its denser child, then repairs
// the child's subtree invariant.
//
// Why this helps: extractPool can only move `batch` elements to the pool
// if the root's set is full enough, and the quality of pooled elements
// derives from the density of sets near the root. Extraction storms drain
// upper sets faster than insertions refill them; the helper works against
// that drift without adding work to the operation hot paths.
//
// Safety: pulling a child's maximum up into its parent preserves the
// parent/child invariant trivially (child.max <= parent.max before the
// pull, and parent.max never decreases). Removing the child's maximum can
// drop child.max below a grandchild's max, so each pull pass finishes by
// running the ordinary swapDown repair on the child. Lock order is parent
// before child throughout — the same global order as every other
// operation.
//
// The second future-work item (inserting high-priority elements directly
// into the extraction pool) is deliberately NOT implemented: pool slots
// below poolNext are claimable by concurrent fetch-and-decrement at any
// moment, so mutating them outside a refill (which excludes claims by
// having observed poolNext <= 0 under the root lock) would race with
// claimers. See DESIGN.md.

// helperInterval is the pause between helper passes.
const helperInterval = 200 * time.Microsecond

// helperLoop runs until the queue is closed. helperInterval bounds the
// pass rate; each pass touches at most one parent/child pair.
func (q *Queue[V]) helperLoop() {
	ctx := q.getCtx()
	defer q.putCtx(ctx)
	ticker := time.NewTicker(helperInterval)
	defer ticker.Stop()
	for {
		select {
		case <-q.helperStop:
			return
		case <-ticker.C:
			q.helperPass(ctx)
		}
	}
}

// helperPass attempts one quality-improvement step and reports whether it
// moved any elements. Exposed (unexported) for deterministic testing.
func (q *Queue[V]) helperPass(ctx *opCtx[V]) bool {
	top := int(q.leafLevel.Load())
	if top < 1 {
		return false
	}
	// Pick a random non-leaf node. Level 0 (the root) is included: a full
	// root is exactly what extractPool wants; unlike forced inserts this
	// path takes the same locks extraction does and backs off under
	// contention via trylocks.
	level := int(ctx.rng.Uint64n(uint64(top)))
	slot := 0
	if level > 0 {
		slot = int(ctx.rng.Uint64n(uint64(1) << level))
	}
	n := q.node(level, slot)

	// Cheap pre-checks without the lock.
	if n.count.Load() >= int64(q.targetLen) {
		return false
	}
	if !n.lock.TryLock() {
		return false
	}
	cnt := n.count.Load()
	if cnt == 0 || cnt >= int64(q.targetLen) || int32(level) >= q.leafLevel.Load() {
		// An empty node is left alone: filling it would create a new max
		// below a possibly-empty parent; emptiness is repaired by the
		// ordinary extraction path.
		n.lock.Unlock()
		return false
	}

	l := q.node(level+1, 2*slot)
	r := q.node(level+1, 2*slot+1)
	c := l
	if r.count.Load() > l.count.Load() {
		c = r
	}
	if c.count.Load() <= 1 {
		n.lock.Unlock()
		return false
	}
	if !c.lock.TryLock() {
		n.lock.Unlock()
		return false
	}

	// Pull the child's largest elements up until the parent reaches
	// targetLen, keeping at least one element in the child. Each pulled
	// key is <= n.max (invariant), so n.max is unchanged and n's own
	// parent invariant cannot break.
	moved := 0
	for n.count.Load() < int64(q.targetLen) && c.count.Load() > 1 {
		e := c.set.removeMax(&ctx.al)
		c.count.Add(-1)
		q.addLocked(ctx, n, e)
		moved++
	}
	if moved == 0 {
		c.lock.Unlock()
		n.lock.Unlock()
		return false
	}
	c.max.Store(c.set.maxKey())
	n.lock.Unlock()
	// The child's max dropped; restore its subtree invariant. swapDown
	// consumes (and releases) the child's lock.
	q.swapDown(ctx, level+1, childSlot(slot, c == r))
	q.helperMoves.Add(int64(moved))
	return true
}

func childSlot(parentSlot int, right bool) int {
	s := 2 * parentSlot
	if right {
		s++
	}
	return s
}

// HelperMoves reports how many elements helper passes have relocated.
// Useful for observability and tests.
func (q *Queue[V]) HelperMoves() int64 { return q.helperMoves.Load() }
