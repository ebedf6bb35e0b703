package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/xrand"
)

// TestHazardRecordsReleased: sync.Pool drops idle contexts at a GC, and a
// dropped context must give its hazard record back. Before it did, every
// context ever created left an active record on the domain's grow-only
// list — one more for every later scan to walk — so the count after many
// bursts separated by collections was the number of bursts times the
// workers, not the workers.
func TestHazardRecordsReleased(t *testing.T) {
	const (
		workers = 4
		bursts  = 24
	)
	q := New[int](Config{Batch: 4, TargetLen: 8})
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				r := xrand.New(seed)
				for i := 0; i < 300; i++ {
					q.Insert(r.Uint64()%1000, 0)
					q.TryExtractMax()
				}
			}(uint64(b*workers + w))
		}
		wg.Wait()
		// Two collections empty a sync.Pool, a third finds the contexts
		// unreachable; finalizers then run on the runtime's own goroutine.
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
	}
	// Finalizers may lag a burst or two behind; what must not happen is
	// growth with the number of bursts (bursts*workers = 96 before the fix).
	// Under the race detector sync.Pool drops a quarter of what is put, so
	// contexts die by the thousand between collections; the run still
	// exercises the finalizer path, the bound means nothing.
	if n := q.ad.dom.Records(); n > 4*workers && !raceEnabled {
		t.Fatalf("%d hazard records after %d bursts of %d workers: released contexts keep theirs", n, bursts, workers)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseHandsNodesOn: a released context's recycled nodes go to the
// shared freelist, where the next context finds them.
func TestReleaseHandsNodesOn(t *testing.T) {
	met := NewMetrics()
	q := New[int](Config{Batch: 0, TargetLen: 8, Metrics: met})
	ctx := q.getCtx()
	runtime.SetFinalizer(ctx, nil) // released by hand below
	nodes := make([]*lnode[int], 100)
	for i := range nodes {
		nodes[i] = ctx.al.get()
	}
	for _, n := range nodes {
		ctx.al.put(n)
	}
	ctx.al.release() // what the finalizer does
	if got := len(q.ad.free.nodes); got != len(nodes) {
		t.Fatalf("shared freelist holds %d nodes after release, want all %d", got, len(nodes))
	}
	before := q.Snapshot().NodeCacheMiss
	next := q.ctxs.New().(*opCtx[int])
	for range nodes {
		next.al.get()
	}
	if miss := q.Snapshot().NodeCacheMiss - before; miss != 0 {
		t.Fatalf("%d fresh allocations with %d released nodes on the freelist", miss, len(nodes))
	}
	if n := q.ad.dom.Records(); n != 1 {
		t.Fatalf("%d hazard records, want the released one reused", n)
	}
}

// TestHazardSeams pins the two seams other tools hang on the reclamation
// path, so their numbers compare across changes to it: the HazardScan fault
// point is consulted at the top of every scan, Metrics.HazardScans counts
// the same scans, a scan runs once per 64 retirements, and every lnode
// allocation is either a NodeCacheHit (recycled — from the context's own
// stack or the shared freelist) or a NodeCacheMiss (fresh).
func TestHazardSeams(t *testing.T) {
	inj := fault.New(1, fault.Plan{HazardScanPct: 100, HazardScanYields: 1})
	met := NewMetrics()
	q := New[int](Config{Batch: 4, TargetLen: 8, Faults: inj, Metrics: met})
	r := xrand.New(9)
	for i := 0; i < 3000; i++ {
		q.Insert(r.Uint64()%100000, 0)
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 2000; i++ {
			q.Insert(r.Uint64()%100000, 0)
			q.TryExtractMax()
		}
	}
	q.Drain()

	snap := q.Snapshot()
	if snap.HazardScans == 0 {
		t.Fatal("no hazard scan counted")
	}
	if calls := inj.Calls(fault.HazardScan); calls != snap.HazardScans {
		t.Fatalf("fault point consulted %d times over %d scans", calls, snap.HazardScans)
	}
	if fired := inj.Fired(fault.HazardScan); fired != snap.HazardScans {
		t.Fatalf("an always-fire plan stalled %d of %d scans", fired, snap.HazardScans)
	}
	if raceEnabled {
		return // what follows needs the one context that sync.Pool keeps dropping
	}
	// One goroutine means one context and one record; the queue is empty,
	// so every lnode ever handed out has been retired.
	retired := snap.NodeCacheHit + snap.NodeCacheMiss
	if want := retired / 64; snap.HazardScans != want {
		t.Fatalf("%d scans for %d retirements, want one per 64 (%d)", snap.HazardScans, retired, want)
	}
	if snap.NodeCacheHitRate() < 0.6 {
		t.Fatalf("hit rate %.2f: recycled allocations are not counted as hits", snap.NodeCacheHitRate())
	}
}

// TestRecycledNodesCarryNoLinks: a node that has sat in a list comes back
// from alloc.get with neither link, whichever way it was recycled — the
// context's own stack of scanned nodes, the shared freelist behind it (both
// memory-safe mode) or the leaky node cache. A surviving prev would splice
// a dead list into a live one the first time the node became a head.
func TestRecycledNodesCarryNoLinks(t *testing.T) {
	// cycle links fresh-or-recycled nodes into a list, unlinks them by every
	// removing operation, and returns the set of nodes that went through.
	cycle := func(al *alloc[int]) map[*lnode[int]]bool {
		s := &listSet[int]{}
		for i := 0; i < 256; i++ {
			s.insertMax(al, element[int]{key: uint64(i)})
			s.insertNonMax(al, element[int]{key: uint64(i / 2)})
		}
		used := make(map[*lnode[int]]bool, s.size)
		for n := s.head; n != nil; n = n.next {
			used[n] = true
		}
		s.splitLower(al, nil)
		s.takeTop(al, 64, nil)
		for s.length() > 1 {
			s.removeMin(al)
			s.removeMax(al)
		}
		return used
	}
	expectRecycled := func(t *testing.T, al *alloc[int], used map[*lnode[int]]bool, count int) (got []*lnode[int]) {
		t.Helper()
		for i := 0; i < count; i++ {
			n := al.get()
			got = append(got, n)
			if !used[n] {
				t.Fatalf("get %d returned a fresh node, want a recycled one", i)
			}
			if n.next != nil || n.prev != nil || n.e != (element[int]{}) {
				t.Fatalf("get %d returned a node with next=%p prev=%p e=%v", i, n.next, n.prev, n.e)
			}
		}
		return got
	}

	t.Run("safe", func(t *testing.T) {
		q := New[int](Config{Batch: 0, TargetLen: 8})
		ctx := q.getCtx()
		runtime.SetFinalizer(ctx, nil) // released by hand below
		used := cycle(&ctx.al)
		// 511 retirements are seven scans' worth: the last scanned nodes sit
		// on the context's stack, the rest were spilled to the freelist.
		for _, n := range expectRecycled(t, &ctx.al, used, 300) {
			n.next, n.prev = n, n // as if it had been linked again
			ctx.al.put(n)
		}
		ctx.al.release()
		next := q.ctxs.New().(*opCtx[int])
		expectRecycled(t, &next.al, used, 200) // all through the shared freelist
	})
	t.Run("leaky", func(t *testing.T) {
		q := New[int](Config{Batch: 0, TargetLen: 8, Leaky: true})
		ctx := q.getCtx()
		expectRecycled(t, &ctx.al, cycle(&ctx.al), nodeCacheShardCap)
	})
}
