package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/xrand"
)

// BenchmarkSteadyMix is the paper's headline mix — 50/50 insert/extract at
// a fixed resident set — on one core.Queue in each reclamation mode, so the
// safe-vs-leak gap that Figures 5, 7 and 8 isolate is a number
// `go test -bench SteadyMix -count 10 | benchstat` reproduces:
//
//	safe   list sets over a hazard-gated domain (§3.5), the paper's "ZMSQ"
//	leaky  DefaultConfig: the product, the paper's "ZMSQ (leak)"
//	array  array sets, which have no nodes to reclaim
//
// each at 1 goroutine and at GOMAXPROCS. A queue holds 65 536 uniform
// 48-bit keys and is run for 2 Mi operations before anything is timed: a
// young queue is faster than the steady one (bench/README.md), and a short
// run would report its own length. The queue is built once per
// sub-benchmark and kept across the harness's b.N ramp.
func BenchmarkSteadyMix(b *testing.B) {
	const (
		resident = 1 << 16
		warmup   = 2 << 20
	)
	leaky := testConfig{Config: DefaultConfig()}
	safe := leaky
	safe.hazard = true
	array := leaky
	array.SetMode = SetModeArray
	modes := []struct {
		name string
		cfg  testConfig
	}{{"safe", safe}, {"leaky", leaky}, {"array", array}}

	// scans counts the safe queue's hazard scans and nothing else: the
	// queue itself is uninstrumented, as in the other two modes.
	scans := NewMetrics()
	open := func(tc testConfig) *Queue[struct{}] {
		if !tc.hazard {
			return New[struct{}](tc.Config)
		}
		ad, _ := hazardDomain[struct{}](scans, nil)
		q, err := Open(tc.Config, Options[struct{}]{Domain: ad})
		if err != nil {
			panic(err)
		}
		return q
	}
	mix := func(q *Queue[struct{}], seed uint64, ops int) {
		r := xrand.New(seed)
		for i := 0; i < ops; i += 2 {
			q.Insert(r.Uint64()>>16, struct{}{})
			q.TryExtractMax()
		}
	}
	for _, mode := range modes {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			var q *Queue[struct{}]
			b.Run(fmt.Sprintf("%s/%d", mode.name, workers), func(b *testing.B) {
				if q == nil {
					q = open(mode.cfg)
					r := xrand.New(1)
					for i := 0; i < resident; i++ {
						q.Insert(r.Uint64()>>16, struct{}{})
					}
					mix(q, 2, warmup)
				}
				b.ReportAllocs()
				s0 := scans.HazardScans.Value()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						mix(q, uint64(b.N+w), b.N/workers)
					}(w)
				}
				wg.Wait()
				if mode.cfg.hazard {
					b.ReportMetric(float64(scans.HazardScans.Value()-s0)*1000/float64(b.N), "scans/kop")
				}
			})
		}
	}
}

// timeBatches runs b.N operations in batches of per, calling setup before
// each batch outside the measured time, and reports the measured time per
// operation as ns/op. The harness's own timer cannot do this: its
// StopTimer/StartTimer pair reads the memory statistics, which costs more
// than a batch.
func timeBatches(b *testing.B, per int, setup func(), op func()) {
	var busy time.Duration
	for done := 0; done < b.N; done += per {
		setup()
		n := min(per, b.N-done)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		busy += time.Since(t0)
	}
	b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N), "ns/op")
}

// BenchmarkSetOps times the nodeSet operations of the insert side on sets
// of the sizes a default queue keeps (TargetLen = 72 to 2×TargetLen = 144),
// through a queue context's allocator, so a list's block traffic recycles
// as it does in a queue. A set is rebuilt from uniform
// 48-bit keys before every batch of N/2 operations (before every operation
// for the two that move many elements at once) and only the operations are
// timed. The few hundred nodes of one set stay in L1, which a queue's
// 65 536 resident elements do not: read the list rows as lower bounds on
// the cost of a walk (BenchmarkInsertStages has it at size).
//
//	go test -run '^$' -bench SetOps ./internal/core/
func BenchmarkSetOps(b *testing.B) {
	benchSetOps(b, "V=struct", func(uint64) struct{} { return struct{}{} })
	payload := make([]byte, 64)
	benchSetOps(b, "V=bytes", func(uint64) []byte { return payload })
}

func benchSetOps[V any](b *testing.B, vname string, val func(uint64) V) {
	for _, mode := range []SetMode{SetModeList, SetModeArray} {
		cfg := DefaultConfig()
		cfg.SetMode = mode
		q := New[V](cfg)
		ctx := q.getCtx()
		al := &ctx.al
		r := xrand.New(7)
		elem := func(k uint64) element[V] { return element[V]{key: k, val: val(k)} }
		// build fills n's (emptied) set with size keys below limit.
		build := func(n *tnode[V], size int, limit uint64) {
			n.set.takeTop(al, int(n.count.Load()), nil)
			n.count.Store(0)
			for i := 0; i < size; i++ {
				q.addLocked(ctx, n, elem(r.Uint64n(limit)))
			}
		}
		q.expandTree(0)
		root, l, rt := q.node(0, 0), q.node(1, 0), q.node(1, 1)

		for _, size := range []int{72, 144} {
			name := func(op string) string { return fmt.Sprintf("%s/%s/N=%d/%s", mode, op, size, vname) }
			fresh := func() { build(root, size, 1<<48) }
			b.Run(name("swapMin"), func(b *testing.B) {
				timeBatches(b, size/2, fresh, func() {
					lo, hi := root.set.minKey(), root.set.maxKey()
					root.set.swapMin(al, elem(lo+1+r.Uint64n(hi-lo)))
				})
			})
			b.Run(name("insertNonMax"), func(b *testing.B) {
				timeBatches(b, size/2, fresh, func() {
					root.set.insertNonMax(al, elem(r.Uint64n(root.set.maxKey()+1)))
				})
			})
			b.Run(name("takeTop"), func(b *testing.B) {
				timeBatches(b, 1, fresh, func() {
					ctx.scratch = root.set.takeTop(al, cfg.Batch, ctx.scratch[:0])
				})
			})
			// A parent of N sheds N/2 elements onto children of N/2 each,
			// whose keys lie mostly below the parent's.
			b.Run(name("splitLower+distribute"), func(b *testing.B) {
				timeBatches(b, 1, func() {
					build(root, size, 1<<48)
					build(l, size/2, 3<<46)
					build(rt, size/2, 3<<46)
				}, func() {
					ctx.split = root.set.splitLower(al, int(root.count.Load()), ctx.split[:0])
					q.distribute(ctx, ctx.split, l, rt)
				})
			})
		}
	}
}

// Insert stages, in the order an insert passes through them. "forced" and
// "other" book the paths that bypass the ladder: a forced insert into an
// under-full leaf, and the root (level 0 or the depth cap's fallback).
const (
	stSelect = iota
	stSearch
	stLock
	stSwapMin
	stDemote
	stInsertMax
	stSplit
	stForced
	stOther
	nStages
)

var stageNames = [nStages]string{"select", "search", "lock+validate", "swapMin", "demote", "insertMax", "split", "forced", "other"}

// stageClock books the time between consecutive laps to stages.
type stageClock struct {
	last time.Time
	ns   [nStages]time.Duration
	laps [nStages]int64
}

func (c *stageClock) start() { c.last = time.Now() }
func (c *stageClock) lap(stage int) {
	now := time.Now()
	c.ns[stage] += now.Sub(c.last)
	c.laps[stage]++
	c.last = now
}

// insertStaged is Queue.insert with a lap after every stage. It mirrors
// insert and regularInsert step for step, calling the same functions; the
// benchmark checks the queue's invariants afterwards, so a drift between
// the two that changes what is built does not go unnoticed.
func insertStaged[V any](q *Queue[V], ctx *opCtx[V], e element[V], clk *stageClock) {
	for {
		clk.start()
		level, slot, force := q.selectPosition(ctx, e.key)
		clk.lap(stSelect)
		if level < 0 {
			q.rootFallbackInsert(ctx, e)
			clk.lap(stOther)
			return
		}
		if force {
			ok := q.forcedInsert(ctx, level, slot, e, false)
			clk.lap(stForced)
			if ok {
				return
			}
			continue
		}
		lvl, slt := q.binarySearchPosition(ctx, level, slot, e.key)
		clk.lap(stSearch)
		if lvl == 0 {
			ok := q.regularInsert(ctx, 0, 0, e, false)
			clk.lap(stOther)
			if ok {
				return
			}
			continue
		}
		n, p := q.node(lvl, slt), q.node(lvl-1, slt/2)
		if !q.lockNode(ctx, p, false) {
			clk.lap(stLock)
			continue
		}
		if !q.lockNode(ctx, n, false) {
			p.lock.Unlock()
			clk.lap(stLock)
			continue
		}
		pcnt := p.count.Load()
		if pcnt == 0 || e.key >= p.max.Load() || (n.count.Load() > 0 && e.key < n.max.Load()) {
			n.lock.Unlock()
			p.lock.Unlock()
			clk.lap(stLock)
			continue
		}
		clk.lap(stLock)
		// A refused swapMin books its test to insertMax.
		swapped := false
		if !q.cfg.NoMinSwap && pcnt > 1 {
			var demoted element[V]
			if demoted, swapped = p.set.swapMin(&ctx.al, e); swapped {
				p.lock.Unlock()
				clk.lap(stSwapMin)
				q.addLocked(ctx, n, demoted)
				clk.lap(stDemote)
			}
		}
		if !swapped {
			p.lock.Unlock()
			q.insertMaxLocked(ctx, n, e)
			clk.lap(stInsertMax)
		}
		q.maybeSplit(ctx, lvl, slt, n)
		clk.lap(stSplit)
		return
	}
}

// BenchmarkInsertStages says where an insert's time goes on the default
// (memory-safe list) queue in BenchmarkSteadyMix's steady state: one
// goroutine, 65 536 resident, every insert followed by an untimed
// extraction. "whole" times Queue.Insert; "stages" runs the same inserts
// through insertStaged and reports, per stage, nanoseconds per insert
// (<stage>-ns/op, averaged over all inserts, so the stages add up to the
// insert) and how many inserts in a thousand pass through it
// (<stage>-per-kop). One clock reading (clock-ns) is taken off every lap
// and off both ends of "whole".
//
//	go test -run '^$' -bench InsertStages -benchtime 1000000x ./internal/core/
func BenchmarkInsertStages(b *testing.B) {
	const (
		resident = 1 << 16
		warmup   = 2 << 20
	)
	cfg := DefaultConfig()
	cfg.SetMode = SetModeList
	q := New[struct{}](cfg)
	r := xrand.New(1)
	for i := 0; i < resident; i++ {
		q.Insert(r.Uint64()>>16, struct{}{})
	}
	for i := 0; i < warmup; i += 2 {
		q.Insert(r.Uint64()>>16, struct{}{})
		q.TryExtractMax()
	}
	// The cost of one reading: consecutive laps book nothing else. The
	// cheapest of several rounds, so that a preempted round cannot make the
	// stages come out negative.
	clock := time.Duration(math.MaxInt64)
	for round := 0; round < 64; round++ {
		var cal stageClock
		cal.start()
		for i := 0; i < 4096; i++ {
			cal.lap(0)
		}
		clock = min(clock, cal.ns[0]/4096)
	}

	b.Run("whole", func(b *testing.B) {
		var busy time.Duration
		for i := 0; i < b.N; i++ {
			k := r.Uint64() >> 16
			t0 := time.Now()
			q.Insert(k, struct{}{})
			busy += time.Since(t0) - clock
			q.TryExtractMax()
		}
		b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N), "ns/op")
		b.ReportMetric(float64(clock.Nanoseconds()), "clock-ns")
	})
	b.Run("stages", func(b *testing.B) {
		var clk stageClock
		for i := 0; i < b.N; i++ {
			ctx := q.getCtx()
			insertStaged(q, ctx, element[struct{}]{key: r.Uint64() >> 16}, &clk)
			q.putCtx(ctx)
			q.TryExtractMax()
		}
		var sum time.Duration
		for s, name := range stageNames {
			ns := clk.ns[s] - time.Duration(clk.laps[s])*clock
			sum += ns
			b.ReportMetric(float64(ns.Nanoseconds())/float64(b.N), name+"-ns/op")
			b.ReportMetric(1000*float64(clk.laps[s])/float64(b.N), name+"-per-kop")
		}
		b.ReportMetric(float64(sum.Nanoseconds())/float64(b.N), "ns/op")
		if err := q.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	})
}
