package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/klsm"
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
	if VariantName(cfg) != "zmsq" {
		t.Fatal("base variant name wrong")
	}
	cfg.SetMode = core.SetModeArray
	cfg.Leaky = true
	if VariantName(cfg) != "zmsq(array)(leak)" {
		t.Fatalf("got %q", VariantName(cfg))
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
	if res.MeanLatency <= 0 {
		t.Fatal("no latency recorded")
	}
	if res.PerHandoff() <= 0 {
		t.Fatal("per-handoff latency not positive")
	}
}

func TestRunHandoffZMSQBothModes(t *testing.T) {
	spec := HandoffSpec{Producers: 2, Consumers: 4, TotalItems: 20000, Seed: 2}
	for _, blocking := range []bool{false, true} {
		res := RunHandoffZMSQ(core.DefaultConfig(), blocking, spec)
		wantMode := "spin"
		if blocking {
			wantMode = "block"
		}
		if res.Mode != wantMode {
			t.Fatalf("mode = %q", res.Mode)
		}
		if res.Elapsed <= 0 || res.MeanLatency < 0 {
			t.Fatalf("bad result: %+v", res)
		}
	}
}

func TestKLSMAdapter(t *testing.T) {
	q := klsm.New(16)
	a := &KLSMAdapter{h: q.Handle(), q: q}
	defer a.Close()
	a.Insert(5)
	a.Insert(9)
	if k, ok := a.ExtractMax(); !ok || k != 9 {
		t.Fatalf("got (%d,%v)", k, ok)
	}
	if a.Name() != "klsm" {
		t.Fatal("name wrong")
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
	if res.Insert.Count+res.Extract.Count != uint64(spec.TotalOps) {
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
