package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/hazard"
	"repro/internal/xrand"
)

// hazardDomain plugs internal/hazard into an allocation domain as
// harness.NewHazardDomain does outside core — the paper's memory-safe ZMSQ
// (§3.5), its scans counted on met and stalled by inj — and returns the
// hazard domain too, for the tests that count its records.
func hazardDomain[V any](met *Metrics, inj *fault.Injector) (*AllocDomain[V], *hazard.Domain[lnode[V]]) {
	d := hazard.NewDomain[lnode[V]]()
	d.SetScanHook(func() {
		if met != nil {
			met.HazardScans.Inc(0)
		}
		inj.Stall(fault.HazardScan)
	})
	return NewAllocDomain[V](func(done func(*lnode[V])) Hazards[lnode[V]] { return d.Get(done) }), d
}

// openHazard opens cfg's queue over a fresh hazardDomain built from cfg's
// Metrics and Faults.
func openHazard(cfg Config) (*Queue[int], *hazard.Domain[lnode[int]]) {
	ad, d := hazardDomain[int](cfg.Metrics, cfg.Faults)
	q, _, err := Open(cfg, Options[int]{Domain: ad})
	if err != nil {
		panic(err)
	}
	return q, d
}

// TestHazardRecordsReleased: sync.Pool drops idle contexts at a GC, and a
// dropped context of a hazard-gated queue must give its hazard record back. Before it did, every
// context ever created left an active record on the domain's grow-only
// list — one more for every later scan to walk — so the count after many
// bursts separated by collections was the number of bursts times the
// workers, not the workers.
func TestHazardRecordsReleased(t *testing.T) {
	const (
		workers = 4
		bursts  = 24
	)
	q, dom := openHazard(Config{Batch: 4, TargetLen: 8})
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
	if n := dom.Records(); n > 4*workers && !raceEnabled {
		t.Fatalf("%d hazard records after %d bursts of %d workers: released contexts keep theirs", n, bursts, workers)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseHandsNodesOn: a released context's recycled nodes go to the
// shared freelist, where the next context finds them, and its hazard
// record goes back to the domain for the next context to reuse.
func TestReleaseHandsNodesOn(t *testing.T) {
	met := NewMetrics()
	q, dom := openHazard(Config{Batch: 0, TargetLen: 8, Metrics: met})
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
	if n := dom.Records(); n != 1 {
		t.Fatalf("%d hazard records, want the released one reused", n)
	}
}

// TestHazardSeams pins the two seams a hazard-gated domain hangs on the
// reclamation path, so their numbers compare across changes to it: the
// HazardScan fault
// point is consulted at the top of every scan, Metrics.HazardScans counts
// the same scans, a scan runs once per 64 retired blocks, and every block
// allocation is either a NodeCacheHit (recycled — from the context's own
// stack or the shared freelist) or a NodeCacheMiss (fresh). The churn is
// long enough that blocks, which a set needs once per blockLen elements at
// most, are mostly recycled.
func TestHazardSeams(t *testing.T) {
	inj := fault.New(1, fault.Plan{HazardScanPct: 100, HazardScanYields: 1})
	met := NewMetrics()
	q, _ := openHazard(Config{Batch: 4, TargetLen: 8, Faults: inj, Metrics: met})
	r := xrand.New(9)
	for i := 0; i < 3000; i++ {
		q.Insert(r.Uint64()%100000, 0)
	}
	rounds := 20
	if raceEnabled {
		rounds = 5 // only the assertions above the raceEnabled return run
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < 2000; i++ {
			q.Insert(r.Uint64()%100000, 0)
			q.TryExtractMax()
		}
	}
	q.Drain()
	// A scan's worth of retirements through one held context. Under the
	// race detector sync.Pool drops contexts after a few operations, too
	// soon for any of them to retire 64 blocks on its own.
	ctx := q.getCtx()
	for i := 0; i < 64; i++ {
		ctx.al.put(ctx.al.get())
	}
	q.putCtx(ctx)

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
	// so every block ever handed out has been retired.
	retired := snap.NodeCacheHit + snap.NodeCacheMiss
	if want := retired / 64; snap.HazardScans != want {
		t.Fatalf("%d scans for %d retirements, want one per 64 (%d)", snap.HazardScans, retired, want)
	}
	if snap.NodeCacheHitRate() < 0.6 {
		t.Fatalf("hit rate %.2f: recycled allocations are not counted as hits", snap.NodeCacheHitRate())
	}
}

// TestRecycledNodesCarryNoLinks: a block that has sat in a list comes back
// from alloc.get empty and with neither link, whichever way it was recycled
// — the context's own free stack or the shared freelist behind it, with or
// without a hazard scan on the way. A surviving prev would splice a dead list into a live
// one the first time the block became a head, and a surviving element
// would reappear in the next set the block joined.
func TestRecycledNodesCarryNoLinks(t *testing.T) {
	// cycle links fresh-or-recycled blocks into a list, unlinks them by
	// every removing operation, and returns the set of blocks that went
	// through and how many of them were freed.
	cycle := func(al *alloc[int]) (map[*lnode[int]]bool, int) {
		s := &listSet[int]{}
		for i := 0; i < 4096; i++ {
			s.insertMax(al, element[int]{key: uint64(i), val: i})
			s.insertNonMax(al, element[int]{key: uint64(i / 2), val: i})
		}
		used := make(map[*lnode[int]]bool)
		for b := s.head; b != nil; b = b.next {
			used[b] = true
		}
		s.splitLower(al, nil)
		s.takeTop(al, 1000, nil)
		for s.length() > 1 {
			s.removeMin(al)
			s.removeMax(al)
		}
		return used, len(used) - 1 // one block keeps the last element
	}
	expectRecycled := func(t *testing.T, al *alloc[int], used map[*lnode[int]]bool, count int) (got []*lnode[int]) {
		t.Helper()
		for i := 0; i < count; i++ {
			b := al.get()
			got = append(got, b)
			if !used[b] {
				t.Fatalf("get %d returned a fresh block, want a recycled one", i)
			}
			if b.next != nil || b.prev != nil || b.n != 0 || b.e != [blockLen]element[int]{} {
				t.Fatalf("get %d returned a block with next=%p prev=%p n=%d e=%v", i, b.next, b.prev, b.n, b.e)
			}
		}
		return got
	}

	for _, tc := range []struct {
		name   string
		hazard bool
	}{{"safe", true}, {"leaky", false}} {
		t.Run(tc.name, func(t *testing.T) {
			q := newTestQueue[int](testConfig{Config{Batch: 0, TargetLen: 8}, tc.hazard})
			ctx := q.getCtx()
			runtime.SetFinalizer(ctx, nil) // released by hand below
			used, freed := cycle(&ctx.al)
			if freed < 256 {
				t.Fatalf("the cycle freed %d blocks, too few for four scans", freed)
			}
			// Hazard-gated, all but the last freed%64 have passed a
			// scan; of those, the last ones sit on the context's stack and
			// the rest were spilled to the freelist.
			for _, b := range expectRecycled(t, &ctx.al, used, freed/2) {
				b.next, b.prev = b, b // as if it had been linked again
				b.e[0], b.e[1], b.n = element[int]{key: 7, val: 7}, element[int]{key: 3, val: 3}, 2
				ctx.al.put(b)
			}
			ctx.al.release()
			next := q.ctxs.New().(*opCtx[int])
			expectRecycled(t, &next.al, used, freed/3) // all through the shared freelist
		})
	}
}
