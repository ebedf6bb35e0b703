package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/hazard"
	"repro/internal/locks"
	"repro/internal/xrand"
)

// tnode is one node of the ZMSQ tree (§3.1). The set may only be mutated
// while lock is held; max, min and count are cached copies of the set's
// extremes and size, updated only while holding lock but readable at any
// time. Optimistic readers must re-validate after locking.
//
// max and min are only meaningful when count > 0; an empty node compares as
// -infinity everywhere.
type tnode[V any] struct {
	lock  locks.TryMutex
	set   nodeSet[V]
	max   atomic.Uint64
	min   atomic.Uint64
	count atomic.Int64
	// Pad so adjacent tnodes in a level's backing array do not share cache
	// lines between their hot atomic fields.
	_ [24]byte
}

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
	am, bm = a.min.Load(), b.min.Load()
	a.min.Store(bm)
	b.min.Store(am)
	ac, bc := a.count.Load(), b.count.Load()
	a.count.Store(bc)
	b.count.Store(ac)
}

// alloc is the per-operation view of an AllocDomain: the set-node allocator
// threaded through set operations. Both list modes recycle through local,
// this context's own LIFO stack: get pops there first — no lock, no shared
// counter, and the node it returns is the one most recently in cache — and
// the domain's shared freelist is touched only to spill half a full stack
// or refill an empty one, which is also how a node freed through one queue
// of a shared domain reaches another. The modes differ only in how a freed
// node reaches the stack. In memory-safe mode (h != nil) put retires it
// through the hazard-pointer domain, and only a clean scan pushes it, so
// reuse never depends on the garbage collector. In leaky mode (the paper's
// "ZMSQ (leak)" configuration) put pushes it at once, with no scan: every
// lnode is only ever read or written under its owning TNode's lock (the
// optimistic paths read TNode atomics, never list nodes), so immediate
// reuse is safe, and any stale pointer held by a quiescent-only diagnostic
// keeps its object alive through the GC. Array mode has no lnodes and no
// stack.
type alloc[V any] struct {
	ad    *AllocDomain[V]
	h     *hazard.Handle[lnode[V]] // nil in leaky/array mode
	local *freeStack[V]            // nil in array mode
	met   *Metrics                 // nil unless Config.Metrics was set
	shard uint32                   // metrics shard hash for this context
}

// newCtxAlloc returns a context's allocator; in list mode, with a free
// stack of its own, and in memory-safe mode a hazard record whose scans
// push onto that stack. The stack is a separate heap object because the
// handle's reclaim callback points at it: were it a field of the opCtx, the
// context would be reachable from itself and its finalizer (see Open)
// would never run.
func newCtxAlloc[V any](ad *AllocDomain[V], met *Metrics, shard uint32) alloc[V] {
	a := alloc[V]{ad: ad, met: met, shard: shard}
	if ad.arraySet {
		return a
	}
	local := &freeStack[V]{}
	a.local = local
	if ad.dom != nil {
		a.h = ad.dom.Get(func(n *lnode[V]) { local.push(&ad.free, n) })
	}
	return a
}

// release gives the context's hazard record, if it has one, back to the
// domain and its stacked nodes to the shared freelist. Put's last scan
// pushes onto local, so the stack is handed over after it.
func (a *alloc[V]) release() {
	if a.h != nil {
		a.ad.dom.Put(a.h)
	}
	a.ad.free.push(a.local.nodes[:a.local.n])
}

func (a *alloc[V]) get() *lnode[V] {
	if s := a.local; s != nil {
		if s.n == 0 {
			a.ad.free.refill(s)
		}
		if s.n > 0 {
			s.n--
			n := s.nodes[s.n]
			s.nodes[s.n] = nil
			if a.met != nil {
				a.met.NodeCacheHit.Inc(a.shard)
			}
			return n
		}
	}
	if a.met != nil {
		a.met.NodeCacheMiss.Inc(a.shard)
	}
	return new(lnode[V])
}

func (a *alloc[V]) put(n *lnode[V]) {
	clear(n.e[:n.n])
	n.n = 0
	n.next, n.prev = nil, nil
	switch {
	case a.h != nil:
		a.h.Retire(n)
	case a.local != nil:
		a.local.push(&a.ad.free, n)
	}
}

// localFreeDepth is the depth of a context's free stack: one hazard scan's
// worth, which is what a context that retires as often as it allocates
// needs to run without the shared freelist. Deeper stacks bought no
// throughput and held more idle nodes per context.
const localFreeDepth = 64

// freeStack is one context's LIFO of reusable lnodes — in memory-safe mode,
// ones that have passed a hazard scan; only its context touches it.
type freeStack[V any] struct {
	n     int
	nodes [localFreeDepth]*lnode[V]
}

// push stacks n, first spilling half a full stack to f.
func (s *freeStack[V]) push(f *freelist[V], n *lnode[V]) {
	if s.n == len(s.nodes) {
		f.spill(s)
	}
	s.nodes[s.n] = n
	s.n++
}

// freelist is the domain-wide pool behind the contexts' free stacks: what
// they spill when full, what they refill from when empty, and what a dying
// context leaves behind. In memory-safe mode nodes reach it only after a
// hazard scan. Transfers move half a stack under one lock acquisition, so
// even a context that only allocates, or only retires, takes the lock once
// per localFreeDepth/2 operations.
type freelist[V any] struct {
	mu    sync.Mutex
	nodes []*lnode[V]
}

func (f *freelist[V]) push(nodes []*lnode[V]) {
	f.mu.Lock()
	f.nodes = append(f.nodes, nodes...)
	f.mu.Unlock()
}

// spill moves the older half of a full stack to the freelist, keeping the
// recently retired, cache-warm half local.
func (f *freelist[V]) spill(s *freeStack[V]) {
	const half = localFreeDepth / 2
	f.push(s.nodes[:half])
	copy(s.nodes[:half], s.nodes[half:])
	clear(s.nodes[half:])
	s.n = half
}

// refill moves up to half a stack's worth of nodes into an empty stack.
func (f *freelist[V]) refill(s *freeStack[V]) {
	f.mu.Lock()
	k := len(f.nodes)
	take := min(k, localFreeDepth/2)
	s.n = copy(s.nodes[:], f.nodes[k-take:])
	clear(f.nodes[k-take:])
	f.nodes = f.nodes[:k-take]
	f.mu.Unlock()
}

// opCtx carries per-operation state: a private RNG, the set-node allocator
// (and with it the participant's hazard-pointer handle), and reusable scratch
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
	// wkeys is ExtractBatch's key scratch for batch WAL records;
	// allocated only when the queue has a durability policy. k1 and v1
	// back the one-element slices Insert and single extractions log.
	wkeys []uint64
	k1    [1]uint64
	v1    [1][]byte
	// Valued-insert encoding scratch, allocated only when a payload
	// codec is attached: venc is the arena the codec appends encoded
	// payloads into, voffs the end offset of each member in it, vptrs
	// the per-member views handed to AppendInserts. The WAL copies the
	// bytes before returning, so the arena is reused freely.
	venc  []byte
	voffs []int
	vptrs [][]byte
	// sctr drives the metrics rank-error sampler: one in rankSampleEvery
	// extractions on this context records a sample (see Metrics.RankError).
	sctr uint32
}

// protect publishes a hazard pointer on n in slot i; outside memory-safe
// mode there is no protocol to follow.
func (c *opCtx[V]) protect(i int, n *tnode[V]) {
	if h := c.al.h; h != nil {
		h.Protect(i, hazard.ID(n))
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
