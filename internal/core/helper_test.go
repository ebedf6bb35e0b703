package core

import (
	"sync"
	"testing"

	"repro/internal/xrand"
)

// drainNode empties a node's set directly (test-only) to create the
// under-full condition the helper repairs.
func drainNodeForTest(q *Queue[int], ctx *opCtx[int], level, slot, keep int) {
	n := q.node(level, slot)
	n.lock.Lock()
	for n.count.Load() > int64(keep) {
		n.set.removeMax(&ctx.al)
		n.count.Add(-1)
	}
	if n.count.Load() > 0 {
		n.max.Store(n.set.maxKey(&ctx.al))
	}
	n.lock.Unlock()
}

func TestHelperPassRefillsUnderfullNode(t *testing.T) {
	q := New[int](Config{Batch: 8, TargetLen: 16})
	r := xrand.New(1)
	for i := 0; i < 20000; i++ {
		q.Insert(r.Uint64()%100000, 0)
	}
	ctx := q.getCtx()
	defer q.putCtx(ctx)

	// Hollow out a level-1 node, then run passes until one hits it.
	drainNodeForTest(q, ctx, 1, 0, 2)
	before := q.node(1, 0).count.Load()
	if before > 2 {
		t.Fatalf("drain failed: count=%d", before)
	}
	refilled, moves := false, 0
	for i := 0; i < 20000 && !refilled; i++ {
		moves += q.HelperPass()
		refilled = q.node(1, 0).count.Load() >= int64(q.targetLen)
	}
	if !refilled {
		t.Fatalf("helper never refilled the hollowed node: count=%d moves=%d",
			q.node(1, 0).count.Load(), moves)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatalf("invariants broken after helper passes: %v", err)
	}
	if moves == 0 {
		t.Fatal("HelperPass reported no moves")
	}
}

func TestHelperPreservesConservation(t *testing.T) {
	q := New[int](Config{Batch: 8, TargetLen: 16})
	r := xrand.New(2)
	const n = 20000
	for i := 0; i < n; i++ {
		q.Insert(r.Uint64(), 0)
	}
	for i := 0; i < 5000; i++ {
		q.HelperPass()
	}
	if got := q.Len(); got != n {
		t.Fatalf("helper changed element count: %d != %d", got, n)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHelperUnderConcurrentLoad runs helper passes back to back on a test
// goroutine while four workers insert and extract, and checks that every
// element comes out exactly once.
func TestHelperUnderConcurrentLoad(t *testing.T) {
	q := New[int](Config{Batch: 8, TargetLen: 16})
	stop := make(chan struct{})
	passes := make(chan int)
	go func() {
		moves := 0
		for {
			select {
			case <-stop:
				passes <- moves
				return
			default:
				moves += q.HelperPass()
			}
		}
	}()
	var wg sync.WaitGroup
	perG := 10000
	if raceEnabled {
		perG = 2000
	}
	var inserted, extracted sync.Map
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := xrand.New(uint64(g) + 7)
			for i := 0; i < perG; i++ {
				k := uint64(g)<<32 | uint64(i)
				q.Insert(k, 0)
				inserted.Store(k, true)
				if r.Intn(2) == 0 {
					if k, _, ok := q.TryExtractMax(); ok {
						extracted.Store(k, true)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	t.Logf("helper passes moved %d elements under load", <-passes)
	for {
		k, _, ok := q.TryExtractMax()
		if !ok {
			break
		}
		extracted.Store(k, true)
	}
	missing := 0
	inserted.Range(func(k, _ any) bool {
		if _, ok := extracted.Load(k); !ok {
			missing++
		}
		return true
	})
	if missing != 0 {
		t.Fatalf("%d elements lost with helper active", missing)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHelperImprovesRootDensityUnderDrain(t *testing.T) {
	// After a burst of extractions, upper sets are drained. Helper passes
	// must never lower root density (the root is only ever a recipient:
	// a pass pulls elements up into an under-full parent or does nothing)
	// and, with the root under-full and the tree populated, must actually
	// move elements. A same-queue before/after comparison keeps this
	// deterministic — two separately built queues can diverge when a GC
	// pause clears the context pool mid-build and reseeds the insert RNG.
	n := 50000
	if raceEnabled {
		n = 10000
	}
	q := New[int](Config{Batch: 16, TargetLen: 32})
	r := xrand.New(11)
	for i := 0; i < n; i++ {
		q.Insert(r.Uint64()%1000000, 0)
	}
	for i := 0; i < n/2; i++ {
		q.TryExtractMax()
	}
	before := q.root().count.Load()

	passes := 30000
	if raceEnabled {
		passes = 8000
	}
	moves := 0
	for i := 0; i < passes; i++ {
		moves += q.HelperPass()
	}
	after := q.root().count.Load()
	if after < before {
		t.Fatalf("helper reduced root density: %d -> %d", before, after)
	}
	if before < int64(q.targetLen) && moves == 0 {
		t.Fatalf("helper moved nothing with the root under-full (%d < %d)", before, q.targetLen)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
