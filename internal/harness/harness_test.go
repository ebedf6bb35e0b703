package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pq"
	"repro/internal/xrand"
)

func TestMakersProduceWorkingQueues(t *testing.T) {
	for name, mk := range Makers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk(4)
			for i := 0; i < 100; i++ {
				q.Insert(uint64(i))
			}
			got := 0
			misses := 0
			for got < 100 && misses < 100000 {
				if _, ok := q.ExtractMax(); ok {
					got++
				} else {
					misses++
				}
			}
			if got != 100 {
				t.Fatalf("recovered %d/100 elements", got)
			}
		})
	}
}

func TestVariantNames(t *testing.T) {
	cfg := core.DefaultConfig()
	if VariantName(cfg, true) != "zmsq" {
		t.Fatal("base variant name wrong")
	}
	if NewHazardZMSQ(cfg).Name() != "zmsq" || NewZMSQ(cfg).Name() != "zmsq(leak)" {
		t.Fatal("adapters are not named for their reclamation")
	}
	cfg.SetMode = core.SetModeArray
	if VariantName(cfg, false) != "zmsq(array)(leak)" {
		t.Fatalf("got %q", VariantName(cfg, false))
	}
}

// TestHazardZMSQScans: the memory-safe adapter runs the hazard protocol
// and counts its scans on the queue's Metrics; the product's runs none.
func TestHazardZMSQScans(t *testing.T) {
	for _, tc := range []struct {
		newQ  func(core.Config) *ZMSQ
		scans bool
	}{{NewHazardZMSQ, true}, {NewZMSQ, false}} {
		cfg := core.Config{Batch: 4, TargetLen: 8, Metrics: core.NewMetrics()}
		z := tc.newQ(cfg)
		r := xrand.New(3)
		for i := 0; i < 20000; i++ {
			z.Insert(r.Uint64() % 100000)
			z.ExtractMax()
		}
		if n := z.Q.Snapshot().HazardScans; tc.scans != (n > 0) {
			t.Errorf("%s: %d hazard scans", z.Name(), n)
		}
	}
}

func TestKeyDistributions(t *testing.T) {
	r := xrand.New(1)
	for _, d := range []KeyDist{Uniform20, Uniform7, Normal20, Uniform64} {
		if d.String() == "unknown" {
			t.Fatalf("distribution %d unnamed", d)
		}
		var limit uint64
		switch d {
		case Uniform20, Normal20:
			limit = 1 << 20
		case Uniform7:
			limit = 1 << 7
		case Uniform64:
			limit = 0 // unbounded
		}
		for i := 0; i < 10000; i++ {
			k := d.Draw(r)
			if limit > 0 && k >= limit {
				t.Fatalf("%v drew %d >= %d", d, k, limit)
			}
		}
	}
}

func TestKeyDistUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown distribution did not panic")
		}
	}()
	KeyDist(99).Draw(xrand.New(1))
}

func TestMixRatio(t *testing.T) {
	r := xrand.New(2)
	const n = 100000
	for _, m := range []Mix{100, 66, 50} {
		inserts := 0
		for i := 0; i < n; i++ {
			if m.IsInsert(r) {
				inserts++
			}
		}
		frac := float64(inserts) / n * 100
		if frac < float64(m)-2 || frac > float64(m)+2 {
			t.Fatalf("mix %d produced %.1f%% inserts", m, frac)
		}
	}
}

func TestRunThroughputConserves(t *testing.T) {
	spec := ThroughputSpec{
		Threads:   4,
		TotalOps:  40000,
		InsertPct: 50,
		Keys:      Uniform20,
		Prefill:   1000,
		Seed:      7,
	}
	res := RunThroughput(Makers()["zmsq"], spec)
	if res.Ops != int64(spec.TotalOps) {
		t.Fatalf("Ops = %d, want %d", res.Ops, spec.TotalOps)
	}
	if res.OpsPerSec() <= 0 {
		t.Fatal("non-positive throughput")
	}
	if !strings.Contains(res.String(), "zmsq") {
		t.Fatal("result row missing queue name")
	}
}

func TestRunThroughputInsertOnlyNeverFails(t *testing.T) {
	spec := ThroughputSpec{Threads: 2, TotalOps: 10000, InsertPct: 100, Keys: Normal20, Seed: 3}
	res := RunThroughput(Makers()["mound"], spec)
	if res.FailedExt != 0 {
		t.Fatalf("insert-only workload recorded %d failed extracts", res.FailedExt)
	}
}

func TestRunAccuracyStrictQueueIsPerfect(t *testing.T) {
	spec := AccuracySpec{QueueSize: 1000, Extracts: 100, Seed: 5}
	res := RunAccuracy(Makers()["globalheap"], 1, spec)
	if res.Hits != 100 {
		t.Fatalf("strict queue hit %d/100", res.Hits)
	}
	if res.HitRate() != 1.0 {
		t.Fatalf("hit rate %v", res.HitRate())
	}
}

func TestRunAccuracyFIFOIsPoor(t *testing.T) {
	spec := AccuracySpec{QueueSize: 1000, Extracts: 100, Seed: 5}
	res := RunAccuracy(Makers()["fifo"], 1, spec)
	if res.HitRate() > 0.5 {
		t.Fatalf("FIFO hit rate %.2f — should be near the floor (~10%%)", res.HitRate())
	}
}

func TestRunAccuracyZMSQBatchBound(t *testing.T) {
	// With batch <= extracts, ZMSQ accuracy must land well above the FIFO
	// floor and the maximum must always be among the first batch+1.
	cfgMaker := func(batch int) QueueMaker {
		return func(int) pq.Queue {
			cfg := core.DefaultConfig()
			cfg.Batch = batch
			cfg.TargetLen = 64
			return NewZMSQ(cfg)
		}
	}
	spec := AccuracySpec{QueueSize: 1000, Extracts: 102, Seed: 11}
	res := RunAccuracy(cfgMaker(8), 1, spec)
	if res.HitRate() < 0.5 {
		t.Fatalf("zmsq(batch=8) hit rate %.2f, paper reports >50%%", res.HitRate())
	}
}

func TestRunHandoffTransfersEverything(t *testing.T) {
	spec := HandoffSpec{Producers: 2, Consumers: 2, TotalItems: 20000, Seed: 1}
	res := RunHandoff(Makers()["zmsq"], spec)
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if res.Latency.Count != spec.TotalItems || res.Latency.Mean <= 0 {
		t.Fatalf("latency %+v, want %d positive samples", res.Latency, spec.TotalItems)
	}
	if res.PerHandoff() <= 0 {
		t.Fatal("per-handoff latency not positive")
	}
}

// TestRunHandoffUnevenSplit: a count the producers cannot split evenly
// still moves every item, and every item is counted.
func TestRunHandoffUnevenSplit(t *testing.T) {
	spec := HandoffSpec{Producers: 4, Consumers: 2, TotalItems: 1001, Seed: 3}
	var q pq.Queue
	res := RunHandoff(func(threads int) pq.Queue {
		q = Makers()["zmsq"](threads)
		return q
	}, spec)
	if res.Latency.Count != 1001 {
		t.Fatalf("counted %d handoffs, want 1001", res.Latency.Count)
	}
	if _, ok := q.ExtractMax(); ok {
		t.Fatal("an item was left in the queue")
	}
	if got, want := res.PerHandoff(), float64(res.Elapsed.Nanoseconds())/1001; got != want {
		t.Fatalf("PerHandoff = %v, want %v", got, want)
	}
}

// TestRunHandoffZMSQBothModes runs Figure 4's two ZMSQ modes through the one
// runner: blocking consumers terminate (the last consumer's Close releases
// the sleepers), every item is consumed, and CPU time is measured.
func TestRunHandoffZMSQBothModes(t *testing.T) {
	spec := HandoffSpec{Producers: 2, Consumers: 4, TotalItems: 20000, Seed: 2}
	for _, blocking := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.Blocking = blocking
		res := RunHandoff(func(int) pq.Queue { return NewZMSQ(cfg) }, spec)
		if res.Elapsed <= 0 || res.Latency.Count != spec.TotalItems || res.Latency.Mean < 0 {
			t.Fatalf("blocking=%v: bad result: %+v", blocking, res)
		}
		if res.CPUSeconds <= 0 {
			t.Fatalf("blocking=%v: CPU seconds %v, want > 0", blocking, res.CPUSeconds)
		}
	}
}

// TestSummarizeExact: the latency summary is over the raw samples, so the
// mean and the interpolated p99 of 1…1000 ns are exact, not bucket bounds.
func TestSummarizeExact(t *testing.T) {
	ns := make([]float64, 1000)
	for i := range ns {
		ns[i] = float64(i + 1)
	}
	got := summarize(ns)
	if got.Count != 1000 || got.Mean != 500.5 || got.P50 != 500.5 || got.P99 != 990.01 {
		t.Fatalf("summarize(1…1000) = %+v, want mean 500.5, p50 500.5, p99 990.01", got)
	}
	if (summarize(nil) != Latency{}) {
		t.Fatal("summary of no samples is not zero")
	}
}

func TestRankAccuracyMaxRateGuarantee(t *testing.T) {
	// §3.7: the true maximum is returned at least once per batch+1
	// consecutive extractions, so over a long single-threaded run the
	// max-return rate must be at least 1/(batch+1).
	for _, batch := range []int{2, 8, 32} {
		batch := batch
		mk := func(int) pq.Queue {
			return NewZMSQ(core.Config{Batch: batch, TargetLen: 64})
		}
		sum := RunAccuracy(mk, 1, AccuracySpec{QueueSize: 4096, Extracts: 2048, Seed: 7}).Rank
		if sum.Misses != 0 {
			t.Fatalf("batch=%d: tracker misses=%d", batch, sum.Misses)
		}
		want := 1.0 / float64(batch+1)
		if sum.MaxRate < want {
			t.Fatalf("batch=%d: maxRate %.4f below guaranteed %.4f", batch, sum.MaxRate, want)
		}
	}
}

func TestRankAccuracyStrictIsExact(t *testing.T) {
	mk := func(int) pq.Queue { return pq.NewGlobalHeap(0) }
	sum := RunAccuracy(mk, 1, AccuracySpec{QueueSize: 2048, Extracts: 1024, Seed: 9}).Rank
	if sum.MaxRate != 1 || sum.Worst != 0 {
		t.Fatalf("strict queue rank summary: %+v", sum)
	}
}

func TestRunOpLatency(t *testing.T) {
	spec := ThroughputSpec{
		Threads: 2, TotalOps: 20000, InsertPct: 50,
		Keys: Uniform20, Prefill: 5000, Seed: 4,
	}
	res := RunOpLatency(Makers()["zmsq"], spec)
	if res.Insert.Count == 0 || res.Extract.Count == 0 {
		t.Fatalf("no samples: %+v", res)
	}
	if res.Insert.Count+res.Extract.Count != spec.TotalOps {
		t.Fatalf("sample count %d != ops %d", res.Insert.Count+res.Extract.Count, spec.TotalOps)
	}
	if res.Insert.P99 < res.Insert.P50 || res.Extract.P99 < res.Extract.P50 {
		t.Fatal("quantiles out of order")
	}
	if res.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRunOpLatencyInsertOnly(t *testing.T) {
	spec := ThroughputSpec{Threads: 1, TotalOps: 5000, InsertPct: 100, Keys: Normal20, Seed: 8}
	res := RunOpLatency(Makers()["mound"], spec)
	if res.Extract.Count != 0 {
		t.Fatalf("insert-only workload recorded %d extracts", res.Extract.Count)
	}
	if res.Insert.Count != 5000 {
		t.Fatalf("insert count = %d", res.Insert.Count)
	}
}
