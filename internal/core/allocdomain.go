package core

import (
	"math"
	"slices"
	"sync"
)

// AllocDomain is where run buffers recycle: the shared freelists behind
// every context's free stacks, one per capacity class. It is a first-class
// object so it can be shared across queues: a sharded front-end
// (internal/sharded) builds S core queues over ONE domain, and the server
// all its tenants' shards, so a buffer freed through one queue serves
// another's allocation instead of fragmenting into S private pools.
// Array-mode queues hold no run buffers and never touch it, so one domain
// serves queues of either set mode.
//
// A run's buffer comes in one of nClasses capacities, fixed by the
// TargetLen of the first queue opened over the domain (queues sharing a
// domain share a config in this repository; another TargetLen works, only
// with a worse fit). The largest regular class holds the split bound,
// 2×targetLen+1 elements, where every set above the depth cap splits; one
// class above it holds what a child holds for a moment when a split hands
// it a run on top of a full set. A depth-capped set, or the root in
// rootFallbackInsert, may outgrow every class: its buffers grow by
// doubling and are left to the collector, not recycled.
//
// A freed buffer goes straight back onto its context's stack (see alloc in
// tnode.go): a run buffer is only read or written under its owning TNode's
// lock, so no optimistic reader can hold one. That is the paper's "ZMSQ
// (leak)" configuration, and the product's only one.
//
// The paper's memory-safe ZMSQ (§3.5) plugs in from outside, through the
// Reclaimer a domain may carry; in the product it is nil, one predictable
// branch at each of the four Hazards sites.
type AllocDomain[V any] struct {
	once sync.Once
	caps [nClasses]int
	free [nClasses]freelist[V]
	join Reclaimer[runBuf[V]] // nil: freed buffers are reused at once
}

// nClasses is the number of run buffer capacity classes: four a factor of
// two apart, the largest holding the split bound, and one class above it.
const nClasses = 5

// topClass is the class that holds the split bound.
const topClass = nClasses - 2

// init fixes the classes for targetLen, once per domain. Each capacity is
// rounded up to what the allocator's size class for it holds anyway.
func (d *AllocDomain[V]) init(targetLen int) {
	d.once.Do(func() {
		bound := 2*targetLen + 1
		for c := 0; c <= topClass; c++ {
			d.caps[c] = roundCap[V]((bound + 1<<(topClass-c) - 1) >> (topClass - c))
		}
		d.caps[topClass+1] = roundCap[V](bound + (bound+1)/2)
		for c := range d.free {
			d.free[c].depth = max(localFreeDepth, domainFreeRuns*bound/d.caps[c])
			if d.join != nil {
				// Room for what the hazard protocol holds back.
				d.free[c].depth = max(d.free[c].depth, 4*hazardScanEvery)
			}
			// At its bound from the start: a spill never grows the slice,
			// which in a warmed queue would be an allocation.
			d.free[c].bufs = make([][]element[V], 0, d.free[c].depth)
		}
	})
}

// roundCap is the capacity the allocator gives a buffer of n elements.
func roundCap[V any](n int) int { return cap(slices.Grow([]element[V](nil), n)) }

// class is the smallest class that holds need elements, or -1 past the
// largest.
func (d *AllocDomain[V]) class(need int) int {
	for c, n := range d.caps {
		if n >= need {
			return c
		}
	}
	return -1
}

// classOf is the class of a buffer of capacity cp, or -1 for one of no
// class.
func (d *AllocDomain[V]) classOf(cp int) int {
	for c, n := range d.caps {
		if n == cp {
			return c
		}
	}
	return -1
}

// fitCap is the capacity a run of n elements belongs in after a removal:
// the class holding a quarter as many again, but never above the split
// bound's. A run moved there is more than half full, and one that grows to
// fill its buffer moves up a class to about 70%. A run longer than the
// split bound stays where it is.
func (d *AllocDomain[V]) fitCap(n int) int {
	want := min(n+(n+3)/4, d.caps[topClass])
	if n > want {
		return math.MaxInt
	}
	return d.caps[d.class(want)]
}

// Hazards is one operation context's part in a safe memory reclamation
// protocol, at the four sites a queue consults it: publish identity id in
// slot i before an optimistic read, clear slot i after the operation,
// retire a freed run buffer, and release the participation when the
// context dies. *hazard.Handle satisfies it.
type Hazards[B any] interface {
	Protect(i int, id uintptr)
	Clear(i int)
	Retire(b *B)
	Release()
}

// Reclaimer makes a context's Hazards; done receives each buffer retired
// through them once it may be reused. B is the box a retired run buffer
// travels in, which no other package can name: a caller outside core
// builds the Reclaimer in a function generic over B and passes
// NewAllocDomain to it, so B is inferred from NewAllocDomain's signature
// (see harness.NewHazardDomain).
type Reclaimer[B any] func(done func(*B)) Hazards[B]

// NewAllocDomain builds a standalone allocation domain. Hand it to Open as
// Options.Domain to share one freelist across several queues; queues opened
// without one get a private domain with no Reclaimer. r is nil in the
// product. A non-nil r gates every freed buffer's reuse on r's protocol,
// and its Hazards receive the identity of every TNode an operation reads
// optimistically.
func NewAllocDomain[V any](r Reclaimer[runBuf[V]]) *AllocDomain[V] {
	return &AllocDomain[V]{join: r}
}
