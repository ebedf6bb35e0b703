package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// This file is the extraction pool of §3.3 — the only relaxation mechanism
// ZMSQ has. A nil pool (Config.Batch = 0) means the queue is strict: every
// extraction goes through the root.
//
// The protocol split mirrors the two sides of Listing 2:
//
//   - Consumers call claim, a single fetch-and-decrement plus the per-slot
//     full-flag handoff.
//   - The refiller (who holds the root lock) calls prepare(n) — wait for
//     lagging consumers to release the slots about to be overwritten —
//     then moves elements out of the root set, then publish(elems), which
//     writes the slots and publishes the new occupancy.
//
// Everything else (occupancy, peek, forEach, check) is read-side plumbing
// for Len/Empty/ForEach/PeekMax/CheckInvariants and for the sharded
// front-end's drain/steal accounting.
//
// Concurrency: any number of claim callers; one prepare/publish caller at a
// time (the root lock serializes refills); and read-side methods racing
// everything (they are best-effort snapshots, exactly like Queue.Len).

// batchPool is the paper's batch extraction pool: a fixed array of
// cache-line-padded slots claimed top-down by fetch-and-decrement, refilled
// wholesale under the root lock.
type batchPool[V any] struct {
	slots []poolSlot[V]
	// next > 0 means slots[0..next-1] hold claimable elements; claims
	// decrement it.
	next atomic.Int64
	// gen is the size of the most recent refill, stored just before next
	// publishes it. A claim at index idx estimates its refill-time rank as
	// gen - idx. Telemetry only — never consulted for correctness.
	gen atomic.Int64
	// faults is Config.Faults (nil outside chaos testing); the pool owns
	// its StallPoolHandoff site.
	faults Faults
}

// poolSlot is one entry of the extraction pool, padded to its own cache
// line. full is the per-slot handoff flag: the refiller may only overwrite
// a slot once the consumer that claimed it has read the contents and
// cleared the flag ("wait for lagging consumers", Listing 2). key is
// atomic so the advisory readers (peek, forEach) can observe it while a
// refill is in flight; val is only ever read by the claiming consumer,
// which owns the slot exclusively.
type poolSlot[V any] struct {
	full atomic.Uint32
	key  atomic.Uint64
	val  V
	_    [44]byte
}

func newBatchPool[V any](batch int, faults Faults) *batchPool[V] {
	return &batchPool[V]{
		slots:  make([]poolSlot[V], batch),
		faults: faults,
	}
}

// occupancy is the current number of unclaimed elements (<= 0 = empty).
func (p *batchPool[V]) occupancy() int64 { return p.next.Load() }

// claim takes one pool element with a fetch-and-decrement. A claim owns
// slots[idx] exclusively until it clears the slot's full flag, which is
// what licenses the next refiller to overwrite the slot. rank is the
// element's rank-from-top at its refill instant (telemetry only — see
// Metrics.RankError); ok is false when the pool was observed empty.
func (p *batchPool[V]) claim() (uint64, V, int64, bool) {
	var zero V
	if p.next.Load() <= 0 {
		return 0, zero, 0, false
	}
	idx := p.next.Add(-1)
	if idx < 0 {
		return 0, zero, 0, false
	}
	slot := &p.slots[idx]
	k, v := slot.key.Load(), slot.val
	slot.val = zero
	// Chaos hook: stall between reading the slot and releasing it,
	// simulating a lagging consumer so refillers exercise the
	// wait-for-lagging-consumers loop.
	if p.faults != nil {
		p.faults.StallPoolHandoff()
	}
	slot.full.Store(0) // release the slot to future refillers
	// Rank at refill time: the refiller took rank 0 and the pool is claimed
	// from the top down, so slots[idx] of a gen-sized refill was rank
	// gen - idx. A claim racing the next refill can read a newer gen; clamp
	// rather than pay for a consistent pair.
	rank := p.gen.Load() - idx
	if rank < 0 {
		rank = 0
	}
	return k, v, rank, true
}

// prepare blocks until the n slots the next publish will overwrite have
// been released by lagging consumers ("wait for lagging consumers",
// Listing 2). The caller must hold the refill serialization (root lock).
func (p *batchPool[V]) prepare(n int) {
	for i := 0; i < n; i++ {
		for p.slots[i].full.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// publish stores elems (ascending key order) into the slots prepared for
// and publishes the new occupancy. It clears elems' entries to drop
// payload references; the caller must not reuse their contents.
func (p *batchPool[V]) publish(elems []element[V]) {
	n := len(elems)
	for i := 0; i < n; i++ {
		p.slots[i].key.Store(elems[i].key)
		p.slots[i].val = elems[i].val
		elems[i] = element[V]{}
		p.slots[i].full.Store(1)
	}
	// Publish after all slots are written; the publishing store
	// happens-before any claim that observes it. gen first, so any claim
	// that observes the new next sees this refill's size.
	p.gen.Store(int64(n))
	p.next.Store(int64(n))
}

// peek reports the largest unclaimed key, best-effort under concurrency
// and exact when quiescent.
func (p *batchPool[V]) peek() (uint64, bool) {
	idx := p.next.Load() - 1
	if idx < 0 || idx >= int64(len(p.slots)) {
		return 0, false
	}
	if p.slots[idx].full.Load() != 1 {
		return 0, false
	}
	return p.slots[idx].key.Load(), true
}

// forEach snapshots slot contents through the same full-flag handoff
// protocol the consumer path uses: a slot's contents are stable from the
// refiller's full.Store(1) (release) until the claiming consumer's
// full.Store(0), so the copy is taken between two acquire loads of the flag
// and discarded if either load sees the slot released. See Queue.ForEach
// for the residual best-effort window. It returns false if f stopped the
// walk.
func (p *batchPool[V]) forEach(f func(key uint64, val V) bool) bool {
	n := p.next.Load()
	if n > int64(len(p.slots)) {
		n = int64(len(p.slots))
	}
	for i := int64(0); i < n; i++ {
		slot := &p.slots[i]
		if slot.full.Load() != 1 {
			continue
		}
		k, v := slot.key.Load(), slot.val
		if slot.full.Load() != 1 || p.next.Load() <= i {
			// Claimed (or claimed-and-refilled) while we copied; the copy
			// may be torn. Skip it — the element is either being returned
			// to a consumer or was re-reported by a later refill.
			continue
		}
		if !f(k, v) {
			return false
		}
	}
	return true
}

// check validates the pool's structural invariants on a quiescent queue
// (CheckInvariants).
func (p *batchPool[V]) check() error {
	n := p.next.Load()
	if n > int64(len(p.slots)) {
		return fmt.Errorf("pool occupancy %d exceeds capacity %d", n, len(p.slots))
	}
	var prev uint64
	for i := int64(0); i < n; i++ {
		if p.slots[i].full.Load() != 1 {
			return fmt.Errorf("pool slot %d unclaimed but not full", i)
		}
		k := p.slots[i].key.Load()
		if i > 0 && k < prev {
			return fmt.Errorf("pool not ascending at %d", i)
		}
		prev = k
	}
	return nil
}
