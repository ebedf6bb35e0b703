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
func hazardDomain[V any](met *Metrics, inj *fault.Injector) (*AllocDomain[V], *hazard.Domain[runBuf[V]]) {
	d := hazard.NewDomain[runBuf[V]]()
	d.SetScanHook(func() {
		if met != nil {
			met.HazardScans.Inc(0)
		}
		inj.Stall(fault.HazardScan)
	})
	return NewAllocDomain[V](func(done func(*runBuf[V])) Hazards[runBuf[V]] { return d.Get(done) }), d
}

// openHazard opens cfg's queue over a fresh hazardDomain built from cfg's
// Metrics and inj, which also becomes the queue's Faults when non-nil (a
// nil *fault.Injector in Config.Faults would be a non-nil interface).
func openHazard(cfg Config, inj *fault.Injector) (*Queue[int], *hazard.Domain[runBuf[int]]) {
	if inj != nil {
		cfg.Faults = inj
	}
	ad, d := hazardDomain[int](cfg.Metrics, inj)
	q, err := Open(cfg, Options[int]{Domain: ad})
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
	q, dom := openHazard(Config{Batch: 4, TargetLen: 8}, nil)
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

// TestReleaseHandsNodesOn: a released context's recycled buffers go to the
// shared freelist, where the next context finds them, and its hazard
// record goes back to the domain for the next context to reuse.
func TestReleaseHandsNodesOn(t *testing.T) {
	met := NewMetrics()
	q, dom := openHazard(Config{Batch: 0, TargetLen: 8, Metrics: met}, nil)
	ctx := q.getCtx()
	runtime.SetFinalizer(ctx, nil) // released by hand below
	bufs := make([][]element[int], 4*localFreeDepth)
	for i := range bufs {
		bufs[i] = ctx.al.get(1)
	}
	for _, b := range bufs {
		ctx.al.put(b)
	}
	ctx.al.release() // what the finalizer does
	held := 0
	for c := range q.ad.free {
		held += len(q.ad.free[c].bufs)
	}
	if held < len(bufs) {
		t.Fatalf("shared freelist holds %d buffers after release, want at least the %d put", held, len(bufs))
	}
	before := q.Snapshot().NodeCacheMiss
	next := q.ctxs.New().(*opCtx[int])
	for range bufs {
		next.al.get(1)
	}
	if miss := q.Snapshot().NodeCacheMiss - before; miss != 0 {
		t.Fatalf("%d fresh allocations with %d released buffers on the freelist", miss, len(bufs))
	}
	if n := dom.Records(); n != 1 {
		t.Fatalf("%d hazard records, want the released one reused", n)
	}
}

// TestHazardSeams pins the two seams a hazard-gated domain hangs on the
// reclamation path, so their numbers compare across changes to it: the
// HazardScan fault
// point is consulted at the top of every scan, Metrics.HazardScans counts
// the same scans, a scan runs once per 64 retired run buffers, and every
// buffer allocation is either a NodeCacheHit (recycled — from the context's
// own stack or the shared freelist) or a NodeCacheMiss (fresh). The churn
// is long enough that buffers are mostly recycled.
func TestHazardSeams(t *testing.T) {
	inj := fault.New(1, fault.Plan{HazardScanPct: 100, HazardScanYields: 1})
	met := NewMetrics()
	q, _ := openHazard(Config{Batch: 4, TargetLen: 8, Metrics: met}, inj)
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
	// soon for any of them to retire 64 buffers on its own.
	ctx := q.getCtx()
	for i := 0; i < 64; i++ {
		ctx.al.put(ctx.al.get(1))
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
	// so every buffer ever handed out has been retired.
	retired := snap.NodeCacheHit + snap.NodeCacheMiss
	if want := retired / 64; snap.HazardScans != want {
		t.Fatalf("%d scans for %d retirements, want one per 64 (%d)", snap.HazardScans, retired, want)
	}
	if snap.NodeCacheHitRate() < 0.6 {
		t.Fatalf("hit rate %.2f: recycled allocations are not counted as hits", snap.NodeCacheHitRate())
	}
}

// TestRecycledBuffersHoldNoElement: a buffer that has held a run comes
// back from alloc.get empty and with every slot zero, whichever way it was
// recycled — the context's own free stack or the shared freelist behind
// it, with or without a hazard scan on the way — so a free buffer pins no
// payload, and no element reappears in the next set the buffer serves.
func TestRecycledBuffersHoldNoElement(t *testing.T) {
	// cycle grows a run of []byte payloads through every class, shrinks it
	// by every removing operation, and returns the buffers that went
	// through the set (by their first slot) and how many were freed.
	cycle := func(al *alloc[[]byte]) (map[*element[[]byte]]bool, int) {
		s := &nodeSet[[]byte]{}
		used := make(map[*element[[]byte]]bool)
		note := func() {
			if cap(s.e) > 0 {
				used[&s.e[:1][0]] = true
			}
		}
		for round := 0; round < 48; round++ {
			for i := 0; i < 600; i++ {
				k := uint64(i)
				s.insertMax(al, element[[]byte]{key: k, val: []byte{byte(i)}})
				note()
				s.insertNonMax(al, element[[]byte]{key: k / 2, val: []byte{byte(i)}})
				note()
			}
			s.splitLower(al, len(s.e), nil)
			note()
			s.takeTop(al, len(s.e)/3, nil)
			note()
			for len(s.e) > 1 {
				s.swapMin(al, element[[]byte]{key: s.e[len(s.e)-1].key, val: []byte{1}})
				s.removeMax(al)
				note()
			}
			s.removeMax(al)
		}
		return used, len(used)
	}
	expectRecycled := func(t *testing.T, al *alloc[[]byte], used map[*element[[]byte]]bool, c, count int) (got [][]element[[]byte]) {
		t.Helper()
		for i := 0; i < count; i++ {
			b := al.get(al.ad.caps[c])
			got = append(got, b)
			if !used[&b[:1][0]] {
				t.Fatalf("get %d of class %d returned a fresh buffer, want a recycled one", i, c)
			}
			if len(b) != 0 || cap(b) != al.ad.caps[c] {
				t.Fatalf("get %d returned len %d cap %d, want an empty buffer of capacity %d", i, len(b), cap(b), al.ad.caps[c])
			}
			for j, e := range b[:cap(b)] {
				if e.key != 0 || e.val != nil {
					t.Fatalf("get %d returned a buffer holding (%d, %v) in slot %d", i, e.key, e.val, j)
				}
			}
		}
		return got
	}

	for _, tc := range []struct {
		name   string
		hazard bool
	}{{"safe", true}, {"leaky", false}} {
		t.Run(tc.name, func(t *testing.T) {
			q := newTestQueue[[]byte](testConfig{Config{Batch: 0, TargetLen: 8}, tc.hazard})
			ctx := q.getCtx()
			runtime.SetFinalizer(ctx, nil) // released by hand below
			used, freed := cycle(&ctx.al)
			if freed < 2*nClasses {
				t.Fatalf("the cycle went through %d buffers, too few to reach every class", freed)
			}
			// Hazard-gated, all but the last few have passed a scan; the last
			// ones sit on the context's stacks and the rest were spilled to
			// the freelist.
			for c := 0; c < nClasses; c++ {
				for _, b := range expectRecycled(t, &ctx.al, used, c, 1) {
					b = append(b, element[[]byte]{key: 7, val: []byte{7}}, element[[]byte]{key: 3, val: []byte{3}})
					ctx.al.put(b)
				}
			}
			ctx.al.release()
			next := q.ctxs.New().(*opCtx[[]byte])
			for c := 0; c < nClasses; c++ {
				expectRecycled(t, &next.al, used, c, 1) // through the shared freelist
			}
		})
	}
}
