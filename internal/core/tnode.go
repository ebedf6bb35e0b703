package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/xrand"
)

// tnode is one node of the ZMSQ tree (§3.1): its lock, its set, and the
// set's maximum and size cached in max and count. The set may only be
// mutated while lock is held; max and count are updated only while holding
// lock but are readable at any time. Optimistic readers must re-validate
// after locking. The set's minimum is not cached: only the locked
// parent-min swap reads it, and the set answers it there.
//
// max is only meaningful when count > 0; an empty node compares as
// -infinity everywhere.
type tnode[V any] struct {
	lock  nodeLock
	set   nodeSet[V]
	max   atomic.Uint64
	count atomic.Int64
	// Pad to 64 bytes, so adjacent tnodes in a level's array do not share
	// cache lines between their fields. The array starts on a 64-byte
	// boundary, or 8 bytes past one where the allocator puts its header in
	// front of a pointerful object over 512 bytes; with the pad last, the
	// 56 bytes of fields sit on one line either way.
	_ [8]byte
}

// nodeLock is a TNode's lock, one of the three kinds §4.1 compares: the
// sleeping sync.Mutex, a TAS and a TATAS spin trylock. The kind is set
// once, when the node is made, and every method dispatches on it. The insert
// path's optimistic reads are re-validated after locking, and a node that is
// locked now is likely to fail validation anyway, so it pays to TryLock and
// restart along another random path rather than queue behind the holder;
// every kind therefore has TryLock as well as Lock and Unlock.
type nodeLock struct {
	state atomic.Uint32 // TAS and TATAS: 1 while held
	kind  LockKind
	std   sync.Mutex // LockStd only
}

// spinBudget is how many failed acquire attempts a spinlock makes before
// yielding the processor. Goroutines are cooperatively scheduled, so an
// unbounded spin with more goroutines than Ps can livelock; Gosched keeps
// the spin well-behaved while staying in user space in the common case.
const spinBudget = 64

// TryLock attempts to acquire the lock without blocking and reports whether
// it succeeded: TAS makes one exchange, TATAS reads first and exchanges only
// when the lock appears free.
func (l *nodeLock) TryLock() bool {
	switch l.kind {
	case LockTATAS:
		return l.state.Load() == 0 && l.state.Swap(1) == 0
	case LockTAS:
		return l.state.Swap(1) == 0
	default:
		return l.std.TryLock()
	}
}

// Lock acquires the lock. Std sleeps; TAS retries the exchange, and TATAS
// spins on a read until the lock appears free before retrying it.
func (l *nodeLock) Lock() {
	switch l.kind {
	case LockTATAS:
		spins := 0
		for !l.TryLock() {
			for l.state.Load() != 0 {
				spins++
				if spins%spinBudget == 0 {
					runtime.Gosched()
				}
			}
		}
	case LockTAS:
		for spins := 1; !l.TryLock(); spins++ {
			if spins%spinBudget == 0 {
				runtime.Gosched()
			}
		}
	default:
		l.std.Lock()
	}
}

// Unlock releases the lock. It must only be called by the holder. The Std
// branch is a call of its own so that the spin kinds' release inlines.
func (l *nodeLock) Unlock() {
	if l.kind == LockStd {
		l.unlockStd()
		return
	}
	l.state.Store(0)
}

//go:noinline
func (l *nodeLock) unlockStd() { l.std.Unlock() }

// emptyOrAtMost reports, from the cached fields, whether the node is empty
// or its max does not exceed key. This is the optimistic test used by
// position selection; it is re-validated under the node lock.
func (n *tnode[V]) emptyOrAtMost(key uint64) bool {
	return n.count.Load() == 0 || n.max.Load() <= key
}

// swapContents exchanges the sets and cached metadata of two locked nodes.
// Callers must hold both locks.
func swapContents[V any](a, b *tnode[V]) {
	a.set, b.set = b.set, a.set
	am, bm := a.max.Load(), b.max.Load()
	a.max.Store(bm)
	b.max.Store(am)
	ac, bc := a.count.Load(), b.count.Load()
	a.count.Store(bc)
	b.count.Store(ac)
}

// alloc is the per-operation view of an AllocDomain: where the run
// buffers of list sets come from and go back to, threaded through set
// operations, and which representation those sets have (arr: Fig. 5's
// arrays, which take no buffer from it). It recycles through local, this
// context's own LIFO stacks, one per capacity class: get pops there first
// — no lock, no shared counter, and the buffer it returns is the one most
// recently in cache — and the domain's shared freelist is touched only to
// spill half a full stack or refill an empty one, which is also how a
// buffer freed through one queue of a shared domain reaches another. put
// pushes a freed buffer onto its stack at once: a run buffer is only ever
// read or written under its owning TNode's lock (the optimistic paths read
// TNode atomics, never sets), so immediate reuse is safe. When the domain
// carries a Reclaimer (h != nil), put retires the buffer through h
// instead, in a runBuf box, and it reaches the stack when h's protocol
// lets it go.
type alloc[V any] struct {
	ad    *AllocDomain[V]
	arr   bool               // sets are arrays; local is nil
	h     Hazards[runBuf[V]] // nil unless the domain carries a Reclaimer
	local *ctxFree[V]        // nil in array mode
	met   *Metrics           // nil unless Config.Metrics was set
	shard uint32             // metrics shard hash for this context
}

// runBuf is the box a run buffer travels in while a Reclaimer holds it
// back: the type the domain's Reclaimer retires. Boxes are the context's
// own and come back to it with their buffer, so they are allocated only
// while the number a protocol holds at once grows.
type runBuf[V any] struct {
	e []element[V]
}

// hazardScanEvery is how many retirements a hazard-gated context makes
// between scans (internal/hazard's threshold): how many boxes one scan can
// hand back at once.
const hazardScanEvery = 64

// hazardSpares is how many spare buffers of every class a hazard-gated
// context's miss adds to the domain (stockSpares).
const hazardSpares = 4

// ctxFree is a context's recycling state: a free stack per capacity class,
// and the spare boxes of a hazard-gated context.
type ctxFree[V any] struct {
	stacks [nClasses]freeStack[V]
	boxes  []*runBuf[V]
}

// newCtxAlloc returns a context's allocator; in list mode, with free
// stacks of its own and, if the domain carries a Reclaimer, Hazards whose
// reclamation pushes onto those stacks. The stacks are a separate heap
// object because that done callback points at them: were they a field of
// the opCtx, the context would be reachable from itself and its finalizer
// (see Open) would never run.
func newCtxAlloc[V any](ad *AllocDomain[V], list bool, met *Metrics, shard uint32) alloc[V] {
	a := alloc[V]{ad: ad, arr: !list, met: met, shard: shard}
	if !list {
		return a
	}
	local := &ctxFree[V]{}
	a.local = local
	if ad.join != nil {
		// A scan's worth of boxes up front, the most a retired list holds
		// between scans, with room for a scan's worth more.
		boxes := make([]runBuf[V], hazardScanEvery)
		local.boxes = make([]*runBuf[V], 0, 2*hazardScanEvery)
		for i := range boxes {
			local.boxes = append(local.boxes, &boxes[i])
		}
		a.h = ad.join(func(b *runBuf[V]) {
			local.push(ad, b.e)
			b.e = nil
			local.boxes = append(local.boxes, b)
		})
	}
	return a
}

// release gives the context's stacked buffers to the shared freelist, after
// releasing its Hazards, if it has them: their last reclamation pushes onto
// local.
func (a *alloc[V]) release() {
	if a.h != nil {
		a.h.Release()
	}
	for c := range a.local.stacks {
		s := &a.local.stacks[c]
		a.ad.free[c].push(s.bufs[:s.n])
		clear(s.bufs[:s.n])
		s.n = 0
	}
}

// get returns an empty buffer that holds need elements: of the smallest
// class that does, recycled if one is free, or else of the next class up;
// fresh (a miss) otherwise, and past the largest class always. Drawing on
// the next class up lets a shift in the mix of classes a queue needs use
// what it has already allocated. A hazard-gated context draws on every
// class up: its retired list holds up to a scan's worth of buffers back,
// of whatever classes they were, so its own classes run dry more often.
func (a *alloc[V]) get(need int) []element[V] {
	c0 := a.ad.class(need)
	if c0 < 0 {
		a.countMiss()
		return make([]element[V], 0, 2*need)
	}
	up := c0 + 2
	if a.h != nil {
		up = nClasses
	}
	for c := c0; c < min(up, nClasses); c++ {
		if b := a.pop(c); b != nil {
			return b
		}
	}
	a.countMiss()
	if a.h != nil {
		a.stockSpares()
	}
	return make([]element[V], 0, a.ad.caps[c0])
}

// pop returns a free buffer of class c, from the context's stack or, when
// that is empty, the domain's freelist; nil when neither has one.
func (a *alloc[V]) pop(c int) []element[V] {
	s := &a.local.stacks[c]
	if s.n == 0 {
		a.ad.free[c].refill(s)
		if s.n == 0 {
			return nil
		}
	}
	s.n--
	b := s.bufs[s.n]
	s.bufs[s.n] = nil
	if a.met != nil {
		a.met.NodeCacheHit.Inc(a.shard)
	}
	return b
}

// stockSpares gives the domain hazardSpares more free buffers of every
// class. A hazard-gated context holds up to a scan's worth of retired
// buffers back, of whatever classes they were, so its queue needs spares
// of every class its runs pass through; it finds how many by missing.
func (a *alloc[V]) stockSpares() {
	for c := range a.ad.free {
		var spares [hazardSpares][]element[V]
		for i := range spares {
			spares[i] = make([]element[V], 0, a.ad.caps[c])
		}
		a.ad.free[c].push(spares[:])
	}
}

func (a *alloc[V]) countMiss() {
	if a.met != nil {
		a.met.NodeCacheMiss.Inc(a.shard)
	}
}

// put takes a buffer back, clearing its elements first (every slot past
// them is zero already), so that a free buffer pins no payload.
func (a *alloc[V]) put(b []element[V]) {
	clear(b)
	b = b[:0]
	if a.h != nil {
		var box *runBuf[V]
		if n := len(a.local.boxes); n > 0 {
			box = a.local.boxes[n-1]
			a.local.boxes = a.local.boxes[:n-1]
		} else {
			box = new(runBuf[V])
		}
		box.e = b
		a.h.Retire(box)
		return
	}
	a.local.push(a.ad, b)
}

// push stacks b on its class's stack, first spilling half a full stack to
// the domain; a buffer of no class (one a depth-capped set outgrew the
// classes with) is left to the collector.
func (f *ctxFree[V]) push(ad *AllocDomain[V], b []element[V]) {
	c := ad.classOf(cap(b))
	if c < 0 {
		return
	}
	s := &f.stacks[c]
	if s.n == len(s.bufs) {
		ad.free[c].spill(s)
	}
	s.bufs[s.n] = b
	s.n++
}

// localFreeDepth is the depth of a context's free stack for one class:
// what a context that retires about as often as it allocates needs to run
// without the shared freelist.
const localFreeDepth = 12

// freeStack is one context's LIFO of reusable buffers of one class; only
// its context touches it.
type freeStack[V any] struct {
	n    int
	bufs [localFreeDepth][]element[V]
}

// domainFreeRuns bounds what the domain's freelist keeps of each class:
// buffers of that class holding this many split-bound runs between them.
// A spill past it leaves the excess to the collector. Without the bound a
// drained queue would keep every buffer it ever filled.
const domainFreeRuns = 16

// freelist is the domain-wide pool of one class behind the contexts' free
// stacks: what they spill when full, what they refill from when empty, and
// what a dying context leaves behind. Transfers move half a stack under
// one lock acquisition, so even a context that only allocates, or only
// retires, takes the lock once per localFreeDepth/2 operations.
type freelist[V any] struct {
	mu    sync.Mutex
	bufs  [][]element[V]
	depth int // the bound: domainFreeRuns split-bound runs' worth
}

// push keeps as many of bufs as the bound leaves room for.
func (f *freelist[V]) push(bufs [][]element[V]) {
	f.mu.Lock()
	room := f.depth - len(f.bufs)
	f.bufs = append(f.bufs, bufs[:max(0, min(room, len(bufs)))]...)
	f.mu.Unlock()
}

// spill moves the older half of a full stack to the freelist, keeping the
// recently retired, cache-warm half local.
func (f *freelist[V]) spill(s *freeStack[V]) {
	const half = localFreeDepth / 2
	f.push(s.bufs[:half])
	copy(s.bufs[:half], s.bufs[half:])
	clear(s.bufs[half:])
	s.n = half
}

// refill moves up to half a stack's worth of buffers into an empty stack.
func (f *freelist[V]) refill(s *freeStack[V]) {
	f.mu.Lock()
	k := len(f.bufs)
	take := min(k, localFreeDepth/2)
	s.n = copy(s.bufs[:], f.bufs[k-take:])
	clear(f.bufs[k-take:])
	f.bufs = f.bufs[:k-take]
	f.mu.Unlock()
}

// opCtx carries per-operation state: a private RNG, the set-node allocator
// (and with it the context's Hazards, if any), and reusable scratch
// buffers — scratch for pool refills and batch root grabs, split for the
// lower half moved by a set split and splitR for the part of it bound for
// the right child. Contexts are pooled; one is held for
// the duration of a single operation (or a whole batch call), so the
// scratch slices reach a steady-state capacity and the hot paths stop
// allocating.
type opCtx[V any] struct {
	rng     xrand.Rand
	al      alloc[V]
	scratch []element[V]
	split   []element[V]
	splitR  []element[V]
	// sctr drives the metrics rank-error sampler: one in rankSampleEvery
	// extractions on this context records a sample (see Metrics.RankError).
	sctr uint32
}

// protect publishes n's identity in hazard slot i, when the domain
// carries a Reclaimer.
func (c *opCtx[V]) protect(i int, n *tnode[V]) {
	if h := c.al.h; h != nil {
		h.Protect(i, uintptr(unsafe.Pointer(n)))
	}
}

// clearHazards empties the traversal hazard slots at the end of an
// operation.
func (c *opCtx[V]) clearHazards() {
	if h := c.al.h; h != nil {
		h.Clear(0)
		h.Clear(1)
	}
}
