package core

import (
	"testing"
	"time"
)

// TestRefillWaitsForLaggingConsumer exercises the §3.3/§3.5 pool handoff
// protocol directly: a slot claimed by a consumer that has not yet read it
// (full flag still set) must block the next refill until the consumer
// finishes. This is the mechanism that makes pool access safe without a
// hazard pointer ("the wait on line 8 of Listing 2").
func TestRefillWaitsForLaggingConsumer(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 8})
	for i := 0; i < 64; i++ {
		q.Insert(uint64(i), i)
	}
	// Trigger a refill: the pool now holds `batch` elements.
	q.TryExtractMax()
	p := q.pool
	if p.next.Load() != int64(q.batch) {
		t.Fatalf("pool next = %d after refill, want %d", p.next.Load(), q.batch)
	}

	// Simulate a lagging consumer: claim every pool element the way
	// extractFromPool does, but leave slot 0's full flag set, as if the
	// claiming goroutine were preempted between the fetch-sub and the
	// read.
	for p.next.Load() > 0 {
		idx := p.next.Add(-1)
		if idx < 0 {
			break
		}
		if idx != 0 {
			p.slots[idx].full.Store(0) // consumed normally
		}
	}

	// The next extraction must refill — and must wait on slot 0.
	done := make(chan uint64, 1)
	go func() {
		k, _, ok := q.TryExtractMax()
		if !ok {
			close(done)
			return
		}
		done <- k
	}()
	select {
	case <-done:
		t.Fatal("refill completed while a claimed slot was still unread")
	case <-time.After(100 * time.Millisecond):
		// Blocked, as required.
	}

	// The lagging consumer finishes: reads its value and clears the flag.
	p.slots[0].full.Store(0)
	select {
	case k, ok := <-done:
		if !ok {
			t.Fatal("extraction failed after lagging consumer finished")
		}
		_ = k
	case <-time.After(5 * time.Second):
		t.Fatal("refill did not resume after the slot was released")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolPublishOrdering verifies that a claim never observes a slot from
// the current round before its contents were written: after any refill,
// every unclaimed slot below the occupancy mark is full and carries a key
// consistent with the pool's ascending order.
func TestPoolPublishOrdering(t *testing.T) {
	q := New[int](Config{Batch: 8, TargetLen: 8})
	for round := 0; round < 200; round++ {
		for i := 0; i < 32; i++ {
			q.Insert(uint64(round*100+i), 0)
		}
		q.TryExtractMax() // refill
		if err := q.checkPool(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for q.pool.occupancy() > 0 {
			q.TryExtractMax()
		}
	}
}

// TestStrictModeHasNoPool confirms batch=0 installs no pool policy and
// reports zero occupancy throughout.
func TestStrictModeHasNoPool(t *testing.T) {
	q := New[int](Config{Batch: 0, TargetLen: 8})
	if q.pool != nil {
		t.Fatal("strict queue allocated a pool")
	}
	for i := 0; i < 100; i++ {
		q.Insert(uint64(i), 0)
	}
	for i := 0; i < 100; i++ {
		q.TryExtractMax()
	}
	if q.PoolOccupancy() != 0 {
		t.Fatalf("PoolOccupancy = %d in strict mode", q.PoolOccupancy())
	}
}
