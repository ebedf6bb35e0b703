package core

import (
	"runtime"

	"repro/internal/fault"
)

// This file implements Listing 1 of the paper: position selection, the
// regular insert (new maximum of a node on the leaf-to-root path), the
// forced insert (non-max member of an under-full deep leaf), the parent-min
// quality swap, and set splitting.

// Insert adds (key, val) to the queue. In blocking mode it also wakes one
// sleeping consumer if any is waiting for this element.
func (q *Queue[V]) Insert(key uint64, val V) {
	ctx := q.getCtx()
	if q.wal != nil {
		// Log before the element becomes visible: its insert record must
		// precede any extract record a concurrent consumer could produce.
		// (Taking the context first is fine — getCtx publishes nothing.)
		ctx.k1[0] = key
		var vals [][]byte
		if q.codec != nil {
			ctx.venc = q.codec.Append(ctx.venc[:0], val)
			ctx.v1[0] = ctx.venc
			vals = ctx.v1[:]
		}
		q.wal.AppendInserts(ctx.k1[:], vals)
	}
	q.insert(ctx, element[V]{key: key, val: val})
	q.putCtx(ctx)
	if q.ring != nil {
		// Signal strictly after the element is physically inserted, so a
		// woken consumer's extraction cannot observe an empty queue.
		q.ring.Signal()
	}
}

func (q *Queue[V]) insert(ctx *opCtx[V], e element[V]) {
	for fails := 0; ; fails++ {
		if fails > 0 && fails%4 == 0 {
			// Back off under heavy contention: repeated trylock failures
			// mean some holder needs cycles to finish its critical section.
			runtime.Gosched()
		}
		// Like the extract path's force escape, stop consulting the fault
		// injector after enough consecutive failures: an always-fail
		// injection schedule must not be able to starve inserts.
		bypass := fails >= 64
		level, slot, force := q.selectPosition(ctx, e.key)
		if level < 0 {
			// Depth cap reached; the root path always succeeds.
			q.rootFallbackInsert(ctx, e)
			return
		}
		if force {
			if q.forcedInsert(ctx, level, slot, e, bypass) {
				if m := q.met; m != nil {
					m.InsertForced.Inc(ctx.al.shard)
				}
				return
			}
			q.countInsertRetry(ctx)
			continue
		}
		lvl, slt := q.binarySearchPosition(ctx, level, slot, e.key)
		if q.regularInsert(ctx, lvl, slt, e, bypass) {
			if m := q.met; m != nil {
				m.InsertRegular.Inc(ctx.al.shard)
			}
			return
		}
		q.countInsertRetry(ctx)
	}
}

// countInsertRetry records one failed placement attempt (lock or
// validation failure) that restarted insert along a new random path.
func (q *Queue[V]) countInsertRetry(ctx *opCtx[V]) {
	if m := q.met; m != nil {
		m.InsertRetries.Inc(ctx.al.shard)
	}
}

// selectPosition samples up to leafLevel random leaves (Listing 1 lines
// 1-12). A leaf whose max is <= key anchors a regular insert somewhere on
// its path to the root; a deep, under-full leaf with max > key accepts key
// as a non-max member (forced insert). If no sampled leaf qualifies the
// tree is expanded one level and selection retries. A negative level
// signals that the depth cap was hit.
func (q *Queue[V]) selectPosition(ctx *opCtx[V], key uint64) (level, slot int, force bool) {
	for {
		lvl := int(q.leafLevel.Load())
		attempts := lvl
		if attempts < 1 {
			attempts = 1
		}
		for a := 0; a < attempts; a++ {
			s := 0
			if lvl > 0 {
				s = int(ctx.rng.Uint64n(uint64(1) << lvl))
			}
			n := q.node(lvl, s)
			// Memory-safety protocol (§3.5): hold a hazard pointer on the
			// node being read optimistically.
			ctx.protect(0, n)
			cnt := n.count.Load()
			if cnt == 0 || n.max.Load() <= key {
				return lvl, s, false
			}
			if !q.cfg.NoForcedInsert && lvl > 3 && cnt < int64(q.targetLen) {
				return lvl, s, true
			}
		}
		if !q.expandTree(lvl) {
			return -1, -1, false
		}
	}
}

// binarySearchPosition finds, on the path from (level, slot) to the root,
// the highest node N with N.max <= key (so N's parent, if any, has
// max > key). The leaf itself satisfies the predicate — selectPosition
// checked — and the mound invariant makes the predicate monotone along the
// path, so a binary search suffices. The reads are optimistic; the caller
// re-validates under locks and retries on failure.
func (q *Queue[V]) binarySearchPosition(ctx *opCtx[V], level, slot int, key uint64) (int, int) {
	lo, hi := 0, level // searching for the smallest depth whose node satisfies the predicate
	for lo < hi {
		mid := (lo + hi) / 2
		anc := q.node(mid, slot>>uint(level-mid))
		// Hand-over-hand hazard pointers during traversal: alternate slots
		// so the previous probe stays protected while the next is
		// published.
		ctx.protect(mid&1, anc)
		if anc.emptyOrAtMost(key) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, slot >> uint(level-lo)
}

// lockNode acquires n's lock. With trylocks enabled (§4.1) a failed attempt
// returns false and the caller restarts along a different random path,
// since a locked node's cached fields are likely to fail validation anyway.
// bypass skips fault injection (not the real trylock): callers set it after
// repeated failures so an always-fail schedule cannot starve them.
func (q *Queue[V]) lockNode(ctx *opCtx[V], n *tnode[V], bypass bool) bool {
	if q.useTry {
		// Chaos hook: a forced failure is indistinguishable from losing the
		// trylock race; the caller restarts along a different random path.
		if !bypass && q.faults != nil && q.faults.Fire(fault.TryLock) {
			if m := q.met; m != nil {
				m.TryLockFail.Inc(ctx.al.shard)
			}
			return false
		}
		if n.lock.TryLock() {
			return true
		}
		if m := q.met; m != nil {
			m.TryLockFail.Inc(ctx.al.shard)
		}
		return false
	}
	n.lock.Lock()
	return true
}

// forcedInsert adds e as a non-max member of the under-full leaf at
// (level, slot), re-validating the optimistic reads under the lock
// (Listing 1 lines 37-48).
func (q *Queue[V]) forcedInsert(ctx *opCtx[V], level, slot int, e element[V], bypass bool) bool {
	n := q.node(level, slot)
	if !q.lockNode(ctx, n, bypass) {
		return false
	}
	cnt := n.count.Load()
	if cnt == 0 || e.key > n.max.Load() || cnt >= int64(q.targetLen) {
		n.lock.Unlock()
		return false
	}
	n.set.insertNonMax(&ctx.al, e)
	if e.key < n.min.Load() {
		n.min.Store(e.key)
	}
	n.count.Store(cnt + 1)
	n.lock.Unlock()
	return true
}

// insertMaxLocked adds e as n's new maximum; n must be locked and the
// caller must have validated e.key >= n.max (or n empty).
func (q *Queue[V]) insertMaxLocked(ctx *opCtx[V], n *tnode[V], e element[V]) {
	cnt := n.count.Load()
	n.set.insertMax(&ctx.al, e)
	n.max.Store(e.key)
	if cnt == 0 || e.key < n.min.Load() {
		n.min.Store(e.key)
	}
	n.count.Store(cnt + 1)
}

// addLocked inserts e into locked node n at whichever position its key
// requires, maintaining the cached metadata. Used for demoted parent minima
// and helper pulls, where e may or may not exceed n's max.
func (q *Queue[V]) addLocked(ctx *opCtx[V], n *tnode[V], e element[V]) {
	cnt := n.count.Load()
	if cnt == 0 || e.key >= n.max.Load() {
		q.insertMaxLocked(ctx, n, e)
		return
	}
	n.set.insertNonMax(&ctx.al, e)
	if e.key < n.min.Load() {
		n.min.Store(e.key)
	}
	n.count.Store(cnt + 1)
}

// addRunLocked is addLocked for each element of run in turn — same
// placement, same cached metadata — as one set operation and one metadata
// update. run must be in the order the node's splitLower produces.
func (q *Queue[V]) addRunLocked(ctx *opCtx[V], n *tnode[V], run []element[V]) {
	if len(run) == 0 {
		return
	}
	lo, hi := run[0].key, run[0].key
	for _, e := range run[1:] {
		lo, hi = min(lo, e.key), max(hi, e.key)
	}
	cnt := n.count.Load()
	n.set.addRun(&ctx.al, run)
	if cnt == 0 || hi > n.max.Load() {
		n.max.Store(hi)
	}
	if cnt == 0 || lo < n.min.Load() {
		n.min.Store(lo)
	}
	n.count.Store(cnt + int64(len(run)))
}

// regularInsert inserts e as the new maximum of the node at (level, slot),
// validating under locks that node.max <= e.key < parent.max still holds
// (Listing 1 lines 14-35). When profitable it applies the parent-min swap
// (§3.2): e joins the parent's set and the parent's old minimum is demoted
// into the node, shrinking the parent's key range at no extra locking cost.
func (q *Queue[V]) regularInsert(ctx *opCtx[V], level, slot int, e element[V], bypass bool) bool {
	n := q.node(level, slot)
	if level == 0 {
		if !q.lockNode(ctx, n, bypass) {
			return false
		}
		if n.count.Load() > 0 && e.key < n.max.Load() {
			n.lock.Unlock()
			return false
		}
		q.insertMaxLocked(ctx, n, e)
		q.maybeSplit(ctx, 0, 0, n) // unlocks n
		return true
	}

	p := q.node(level-1, slot/2)
	if !q.lockNode(ctx, p, bypass) {
		return false
	}
	if !q.lockNode(ctx, n, bypass) {
		p.lock.Unlock()
		return false
	}
	pcnt := p.count.Load()
	if pcnt == 0 || e.key >= p.max.Load() ||
		(n.count.Load() > 0 && e.key < n.max.Load()) {
		n.lock.Unlock()
		p.lock.Unlock()
		return false
	}

	if !q.cfg.NoMinSwap && pcnt > 1 && p.min.Load() < e.key {
		// Quality swap: e replaces the parent's minimum; the old minimum
		// moves down into n. The parent's count and max are unchanged, so
		// no parent split or invariant repair is needed. swapMin does both
		// mutations and the min recomputation in one pass over the set —
		// this runs on most regular inserts, so the single pass matters.
		demoted, newMin := p.set.swapMin(&ctx.al, e)
		p.min.Store(newMin)
		p.lock.Unlock()
		q.addLocked(ctx, n, demoted)
		q.maybeSplit(ctx, level, slot, n) // unlocks n
		return true
	}

	p.lock.Unlock()
	q.insertMaxLocked(ctx, n, e)
	q.maybeSplit(ctx, level, slot, n) // unlocks n
	return true
}

// rootFallbackInsert is the depth-cap escape hatch: insert directly into
// the root (any position), splitting downward on overflow. The root has no
// parent constraint, so this always succeeds.
func (q *Queue[V]) rootFallbackInsert(ctx *opCtx[V], e element[V]) {
	n := q.root()
	n.lock.Lock()
	q.addLocked(ctx, n, e)
	q.maybeSplit(ctx, 0, 0, n)
	if m := q.met; m != nil {
		m.InsertRootFallback.Inc(ctx.al.shard)
	}
}

// maybeSplit restores the 2×targetLen set-size bound on locked node n,
// unlocking n before returning. When the set is too large the smaller half
// is moved into the children; per §3.4 the children are locked before n is
// unlocked so no extraction can observe the pre-split child with the
// post-split parent. Overflowing children are split recursively.
func (q *Queue[V]) maybeSplit(ctx *opCtx[V], level, slot int, n *tnode[V]) {
	if n.count.Load() <= int64(2*q.targetLen) {
		n.lock.Unlock()
		return
	}
	if level+1 >= maxLevels {
		// Depth cap: tolerate the oversized set rather than growing the
		// tree past its bound.
		n.lock.Unlock()
		return
	}
	if int(q.leafLevel.Load()) == level {
		if !q.expandTree(level) {
			n.lock.Unlock()
			return
		}
	}
	// The displaced lower half lands in the context's split scratch. Both
	// buffers are fully consumed by the distribution below before either
	// recursive maybeSplit call reuses them, so one pair per context serves
	// the whole recursion without allocating.
	ctx.split = n.set.splitLower(&ctx.al, ctx.split[:0])
	lower := ctx.split
	n.count.Store(int64(n.set.length()))
	n.min.Store(n.set.minKey())
	// max unchanged: splitLower removes only the smaller half.

	l := q.node(level+1, 2*slot)
	r := q.node(level+1, 2*slot+1)
	l.lock.Lock()
	r.lock.Lock()
	n.lock.Unlock()

	q.distribute(ctx, lower, l, r)
	q.maybeSplit(ctx, level+1, 2*slot, l)   // unlocks l
	q.maybeSplit(ctx, level+1, 2*slot+1, r) // unlocks r
}

// distribute hands the elements a split displaced to the locked children l
// and r, balancing their sizes: each goes to whichever child is smaller at
// its turn (the left on a tie). Every displaced key is <= the parent's new
// minimum, so the parent/child invariant holds regardless of placement.
// Which child an element goes to depends on the counts alone, so the run is
// partitioned first (the left part compacted in place, order kept) and each
// child takes its part in one addRun. lower is scratch: it comes back
// cleared.
func (q *Queue[V]) distribute(ctx *opCtx[V], lower []element[V], l, r *tnode[V]) {
	lc, rc := l.count.Load(), r.count.Load()
	left, right := lower[:0], ctx.splitR[:0]
	for _, el := range lower {
		if rc < lc {
			right = append(right, el)
			rc++
		} else {
			left = append(left, el)
			lc++
		}
	}
	ctx.splitR = right
	q.addRunLocked(ctx, l, left)
	q.addRunLocked(ctx, r, right)
	clear(lower) // drop the scratch copies' payload references
	clear(right)
}
