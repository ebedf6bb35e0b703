// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark iteration executes one full experiment
// cell through internal/harness and reports the figure's headline metric
// via b.ReportMetric (Mops/s for throughput figures, hit% for Table 1,
// ns/handoff and cpu-sec for Figure 4, ms and wasted% for the SSSP
// figures).
//
// The cmd/ tools run the same experiments with the paper's full parameter
// sweeps; the benchmarks here use trimmed cells so `go test -bench=.`
// finishes in minutes. EXPERIMENTS.md records a full run next to the
// paper's numbers.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/mound"
	"repro/internal/pq"
	"repro/internal/quality"
	"repro/internal/spray"
	"repro/internal/sssp"
	"repro/internal/xrand"
)

// benchThreads are the goroutine counts exercised per cell. On a large
// machine these show parallel scaling; on a small one, contention and
// oversubscription behaviour.
var benchThreads = []int{1, 4}

const benchOps = 200_000

func reportThroughput(b *testing.B, mk harness.QueueMaker, spec harness.ThroughputSpec) {
	b.Helper()
	var last harness.ThroughputResult
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i) + 1
		var q pq.Queue
		last = harness.RunThroughput(func(threads int) pq.Queue { q = mk(threads); return q }, spec)
		if c, ok := q.(pq.Closer); ok {
			c.Close() // ends a helper driver (BenchmarkAblationHelper)
		}
	}
	b.ReportMetric(last.OpsPerSec()/1e6, "Mops/s")
	b.ReportMetric(float64(last.FailedExt), "failedExtract")
}

// ---- Figure 2: lock implementations ----

func fig2Cells() []struct {
	name string
	cfg  core.Config
} {
	return []struct {
		name string
		cfg  core.Config
	}{
		{"std", core.Config{Batch: 32, TargetLen: 32, Lock: core.LockStd, NoTryLock: true}},
		{"tas", core.Config{Batch: 32, TargetLen: 32, Lock: core.LockTAS}},
		{"tatas", core.Config{Batch: 32, TargetLen: 32, Lock: core.LockTATAS}},
	}
}

func BenchmarkFig2aLockInsertOnly(b *testing.B) {
	for _, cell := range fig2Cells() {
		for _, t := range benchThreads {
			cfg := cell.cfg
			b.Run(fmt.Sprintf("%s/threads=%d", cell.name, t), func(b *testing.B) {
				reportThroughput(b, func(int) pq.Queue { return harness.NewHazardZMSQ(cfg) },
					harness.ThroughputSpec{Threads: t, TotalOps: benchOps, InsertPct: 100, Keys: harness.Normal20})
			})
		}
	}
}

func BenchmarkFig2bLockMixed(b *testing.B) {
	for _, cell := range fig2Cells() {
		for _, t := range benchThreads {
			cfg := cell.cfg
			b.Run(fmt.Sprintf("%s/threads=%d", cell.name, t), func(b *testing.B) {
				reportThroughput(b, func(int) pq.Queue { return harness.NewHazardZMSQ(cfg) },
					harness.ThroughputSpec{Threads: t, TotalOps: benchOps, InsertPct: 50,
						Keys: harness.Normal20, Prefill: benchOps})
			})
		}
	}
}

// ---- Figure 3: batch and targetLen ----

func fig3Cells() []struct {
	name string
	mk   func(t int) pq.Queue
} {
	return []struct {
		name string
		mk   func(t int) pq.Queue
	}{
		{"dynamic1to1.5", func(t int) pq.Queue {
			return harness.NewHazardZMSQ(core.Config{Batch: t, TargetLen: t * 3 / 2, Lock: core.LockTATAS})
		}},
		{"static32", func(int) pq.Queue {
			return harness.NewHazardZMSQ(core.Config{Batch: 32, TargetLen: 32, Lock: core.LockTATAS})
		}},
		{"static64", func(int) pq.Queue {
			return harness.NewHazardZMSQ(core.Config{Batch: 64, TargetLen: 64, Lock: core.LockTATAS})
		}},
		{"mound", func(int) pq.Queue { return mound.New() }},
	}
}

func BenchmarkFig3aConfigInsertOnly(b *testing.B) {
	for _, cell := range fig3Cells() {
		for _, t := range benchThreads {
			cell, t := cell, t
			b.Run(fmt.Sprintf("%s/threads=%d", cell.name, t), func(b *testing.B) {
				reportThroughput(b, func(int) pq.Queue { return cell.mk(t) },
					harness.ThroughputSpec{Threads: t, TotalOps: benchOps, InsertPct: 100, Keys: harness.Normal20})
			})
		}
	}
}

func BenchmarkFig3bConfigMixed(b *testing.B) {
	for _, cell := range fig3Cells() {
		for _, t := range benchThreads {
			cell, t := cell, t
			b.Run(fmt.Sprintf("%s/threads=%d", cell.name, t), func(b *testing.B) {
				reportThroughput(b, func(int) pq.Queue { return cell.mk(t) },
					harness.ThroughputSpec{Threads: t, TotalOps: benchOps, InsertPct: 50,
						Keys: harness.Normal20, Prefill: benchOps})
			})
		}
	}
}

// ---- Table 1: accuracy ----

func reportAccuracy(b *testing.B, mk harness.QueueMaker, threads int, spec harness.AccuracySpec) {
	b.Helper()
	var last harness.AccuracyResult
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i)*977 + 1
		last = harness.RunAccuracy(mk, threads, spec)
	}
	b.ReportMetric(100*last.HitRate(), "hit%")
}

func accuracyQueues() []struct {
	name    string
	mk      harness.QueueMaker
	threads int
} {
	cells := []struct {
		name    string
		mk      harness.QueueMaker
		threads int
	}{}
	for _, batch := range []int{8, 32, 64} {
		batch := batch
		cells = append(cells, struct {
			name    string
			mk      harness.QueueMaker
			threads int
		}{fmt.Sprintf("zmsq-batch%d", batch), func(int) pq.Queue {
			return harness.NewHazardZMSQ(core.Config{Batch: batch, TargetLen: 64})
		}, 1})
	}
	for _, p := range []int{1, 32, 64} {
		p := p
		cells = append(cells, struct {
			name    string
			mk      harness.QueueMaker
			threads int
		}{fmt.Sprintf("spray-p%d", p), func(int) pq.Queue { return spray.New(p) }, p})
	}
	cells = append(cells, struct {
		name    string
		mk      harness.QueueMaker
		threads int
	}{"fifo", func(int) pq.Queue { return pq.NewFIFO() }, 1})
	return cells
}

func BenchmarkTable1aAccuracy1K(b *testing.B) {
	for _, cell := range accuracyQueues() {
		for _, extracts := range []int{102, 512} {
			cell, extracts := cell, extracts
			b.Run(fmt.Sprintf("%s/top%d", cell.name, extracts), func(b *testing.B) {
				reportAccuracy(b, cell.mk, cell.threads,
					harness.AccuracySpec{QueueSize: 1024, Extracts: extracts})
			})
		}
	}
}

func BenchmarkTable1bAccuracy64K(b *testing.B) {
	for _, cell := range accuracyQueues() {
		for _, extracts := range []int{65, 655, 6553} {
			cell, extracts := cell, extracts
			b.Run(fmt.Sprintf("%s/top%d", cell.name, extracts), func(b *testing.B) {
				reportAccuracy(b, cell.mk, cell.threads,
					harness.AccuracySpec{QueueSize: 65536, Extracts: extracts})
			})
		}
	}
}

// ---- Figure 4: blocking vs spinning ----

func benchHandoffZMSQ(b *testing.B, blocking bool, metric string) {
	cfg := core.DefaultConfig()
	cfg.Batch = 32
	mk := func(int) pq.Queue {
		z := harness.NewHazardZMSQ(cfg)
		if blocking {
			return harness.NewBlockingZMSQ(z)
		}
		return z
	}
	for _, consumers := range []int{2, 8, 32} {
		consumers := consumers
		b.Run(fmt.Sprintf("consumers=%d", consumers), func(b *testing.B) {
			var last harness.HandoffResult
			for i := 0; i < b.N; i++ {
				last = harness.RunHandoff(mk, harness.HandoffSpec{
					Producers: 4, Consumers: consumers, TotalItems: 100_000, Seed: uint64(i) + 1,
				})
			}
			switch metric {
			case "latency":
				b.ReportMetric(last.PerHandoff(), "ns/handoff")
				b.ReportMetric(last.Latency.Mean, "meanLatencyNs")
			case "cpu":
				b.ReportMetric(last.CPUSeconds, "cpu-sec")
			}
		})
	}
}

func BenchmarkFig4aHandoffLatencySpin(b *testing.B)  { benchHandoffZMSQ(b, false, "latency") }
func BenchmarkFig4aHandoffLatencyBlock(b *testing.B) { benchHandoffZMSQ(b, true, "latency") }
func BenchmarkFig4bHandoffCPUSpin(b *testing.B)      { benchHandoffZMSQ(b, false, "cpu") }
func BenchmarkFig4bHandoffCPUBlock(b *testing.B)     { benchHandoffZMSQ(b, true, "cpu") }

// ---- Figure 5: microbenchmark comparison ----

func fig5Cells() []struct {
	name string
	mk   harness.QueueMaker
} {
	zmsq := func(newQ func(core.Config) *harness.ZMSQ, mode core.SetMode) harness.QueueMaker {
		return func(int) pq.Queue {
			cfg := core.DefaultConfig()
			cfg.SetMode = mode
			return newQ(cfg)
		}
	}
	return []struct {
		name string
		mk   harness.QueueMaker
	}{
		{"zmsq", zmsq(harness.NewHazardZMSQ, core.SetModeList)},
		{"zmsq-array", zmsq(harness.NewZMSQ, core.SetModeArray)},
		{"zmsq-leak", zmsq(harness.NewZMSQ, core.SetModeList)},
		{"mound", func(int) pq.Queue { return mound.New() }},
		{"spraylist", func(p int) pq.Queue { return spray.New(p) }},
	}
}

func benchFig5(b *testing.B, mix harness.Mix, keys harness.KeyDist) {
	for _, cell := range fig5Cells() {
		for _, t := range benchThreads {
			cell, t := cell, t
			b.Run(fmt.Sprintf("%s/threads=%d", cell.name, t), func(b *testing.B) {
				reportThroughput(b, cell.mk,
					harness.ThroughputSpec{Threads: t, TotalOps: benchOps, InsertPct: mix, Keys: keys})
			})
		}
	}
}

func BenchmarkFig5aInsertOnly(b *testing.B)    { benchFig5(b, 100, harness.Uniform20) }
func BenchmarkFig5bInsert66(b *testing.B)      { benchFig5(b, 66, harness.Uniform20) }
func BenchmarkFig5cMixed20bit(b *testing.B)    { benchFig5(b, 50, harness.Uniform20) }
func BenchmarkFig5cMixed7bitKeys(b *testing.B) { benchFig5(b, 50, harness.Uniform7) }

// ---- Batch API (beyond the paper) ----

// BenchmarkBatchThroughput measures the InsertBatch/ExtractBatch API on the
// Figure 5c workload (50/50 mix, prefilled, default config). batch=1 routes
// through the per-operation loop and is the baseline; larger batch sizes
// amortize per-call overhead without changing the relaxation contract.
func BenchmarkBatchThroughput(b *testing.B) {
	for _, batch := range []int{1, 16, 128} {
		for _, t := range benchThreads {
			batch, t := batch, t
			b.Run(fmt.Sprintf("batch=%d/threads=%d", batch, t), func(b *testing.B) {
				reportThroughput(b, func(int) pq.Queue { return harness.NewHazardZMSQ(core.DefaultConfig()) },
					harness.ThroughputSpec{Threads: t, TotalOps: benchOps, InsertPct: 50,
						Keys: harness.Uniform20, Prefill: benchOps, Batch: batch})
			})
		}
	}
}

// ---- Metrics overhead (ISSUE 3) ----

// BenchmarkThroughput runs the Figure 5c-style mixed workload with
// Config.Metrics off and on. It is the measurement target of the CI
// metrics-overhead gate: the experiment grid runs the same pair interleaved
// in-process and fails when enabling metrics costs more than the threshold
// (5% in CI). The instrumentation is nil-gated branches plus sharded
// atomic adds on context-private cache lines, so the two curves should be
// indistinguishable from run-to-run noise.
func BenchmarkThroughput(b *testing.B) {
	for _, mode := range []struct {
		name    string
		metrics bool
	}{
		{"metrics=off", false},
		{"metrics=on", true},
	} {
		for _, t := range benchThreads {
			mode, t := mode, t
			b.Run(fmt.Sprintf("%s/threads=%d", mode.name, t), func(b *testing.B) {
				reportThroughput(b, func(int) pq.Queue {
					cfg := core.DefaultConfig()
					if mode.metrics {
						cfg.Metrics = core.NewMetrics()
					}
					return harness.NewZMSQ(cfg)
				}, harness.ThroughputSpec{Threads: t, TotalOps: benchOps, InsertPct: 50,
					Keys: harness.Uniform20, Prefill: benchOps})
			})
		}
	}
}

// ---- Figure 6: producer/consumer ratios ----

func BenchmarkFig6ProducerConsumer(b *testing.B) {
	ratios := []struct{ p, c int }{{2, 2}, {1, 3}, {3, 1}}
	for _, qn := range []string{"zmsq", "mound", "spraylist"} {
		mk := harness.Makers()[qn]
		for _, rt := range ratios {
			qn, mk, rt := qn, mk, rt
			b.Run(fmt.Sprintf("%s/%dp%dc", qn, rt.p, rt.c), func(b *testing.B) {
				var last harness.HandoffResult
				for i := 0; i < b.N; i++ {
					last = harness.RunHandoff(mk, harness.HandoffSpec{
						Producers: rt.p, Consumers: rt.c, TotalItems: 100_000, Seed: uint64(i) + 1,
					})
				}
				b.ReportMetric(last.PerHandoff(), "ns/item")
			})
		}
	}
}

// ---- Figures 7 and 8: SSSP ----

func benchSSSP(b *testing.B, g *graph.Graph, cells []struct {
	name string
	mk   harness.QueueMaker
}) {
	for _, cell := range cells {
		for _, t := range benchThreads {
			cell, t := cell, t
			b.Run(fmt.Sprintf("%s/workers=%d", cell.name, t), func(b *testing.B) {
				var last sssp.Result
				for i := 0; i < b.N; i++ {
					last = sssp.Run(g, 0, cell.mk(t), t)
				}
				b.ReportMetric(float64(last.Elapsed.Milliseconds()), "ms")
				b.ReportMetric(100*last.WastedFraction(), "wasted%")
			})
		}
	}
}

func fig7Cells() []struct {
	name string
	mk   harness.QueueMaker
} {
	return []struct {
		name string
		mk   harness.QueueMaker
	}{
		{"zmsq42-64", func(int) pq.Queue {
			return harness.NewHazardZMSQ(core.Config{Batch: 42, TargetLen: 64})
		}},
		{"mound", func(int) pq.Queue { return mound.New() }},
		{"spraylist", func(p int) pq.Queue { return spray.New(p) }},
	}
}

func BenchmarkFig7SSSPPolitician(b *testing.B) {
	g := graph.Politician(1)
	benchSSSP(b, g, fig7Cells())
}

func BenchmarkFig7SSSPArtist(b *testing.B) {
	if testing.Short() {
		b.Skip("50K-node graph; skipped in short mode")
	}
	g := graph.Artist(1)
	benchSSSP(b, g, fig7Cells())
}

func BenchmarkFig8SSSPLiveJournalScaled(b *testing.B) {
	g := graph.LiveJournalScaled(14, 1) // 16K nodes; cmd/sssp runs larger scales
	cells := []struct {
		name string
		mk   harness.QueueMaker
	}{}
	for _, bt := range [][2]int{{16, 24}, {42, 64}, {96, 144}} {
		bt := bt
		cells = append(cells, struct {
			name string
			mk   harness.QueueMaker
		}{fmt.Sprintf("zmsq%d-%d", bt[0], bt[1]), func(int) pq.Queue {
			return harness.NewHazardZMSQ(core.Config{Batch: bt[0], TargetLen: bt[1]})
		}})
	}
	cells = append(cells, fig7Cells()[1:]...)
	benchSSSP(b, g, cells)
}

// ---- §3.2: set-size stability ----

func BenchmarkSec32SetStats(b *testing.B) {
	var st core.TreeStats
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Batch = 32
		cfg.TargetLen = 32
		z := harness.NewHazardZMSQ(cfg)
		r := xrand.New(uint64(i) + 1)
		for j := 0; j < 100_000; j++ {
			z.Insert(harness.Normal20.Draw(r))
		}
		for j := 0; j < 200_000; j++ {
			z.Insert(harness.Normal20.Draw(r))
			z.ExtractMax()
		}
		st = z.Q.Stats()
	}
	b.ReportMetric(st.NonLeafSets.Mean, "meanSetSize")
	b.ReportMetric(st.NonLeafSets.StdDev, "stddevSetSize")
}

// ---- Ablations (DESIGN.md §3) ----

// benchAblation measures the paper's memory-safe ZMSQ with one mechanism
// changed by mod; newQ is harness.NewZMSQ only for the leak ablation and
// newHelperZMSQ only for the helper's.
func benchAblation(b *testing.B, newQ func(core.Config) *harness.ZMSQ, mod func(*core.Config)) {
	cfg := core.DefaultConfig()
	mod(&cfg)
	for _, t := range benchThreads {
		t := t
		b.Run(fmt.Sprintf("threads=%d", t), func(b *testing.B) {
			reportThroughput(b, func(int) pq.Queue { return newQ(cfg) },
				harness.ThroughputSpec{Threads: t, TotalOps: benchOps, InsertPct: 50,
					Keys: harness.Normal20, Prefill: benchOps})
		})
	}
	// The ranked pass: the same 50/50 mix and keys on one goroutine
	// against 65 536 resident elements, every extraction ranked by
	// quality.Tracker. One goroutine makes the ranks exact; rank error is
	// what each mechanism is there to buy.
	const resident, ops = 1 << 16, 1 << 20
	for seed := uint64(1); seed <= 3; seed++ {
		b.Run(fmt.Sprintf("ranked/seed=%d", seed), func(b *testing.B) {
			var s quality.RankSummary
			for i := 0; i < b.N; i++ {
				z := newQ(cfg)
				tr := quality.NewTracker(^seed)
				r := xrand.New(seed)
				for j := 0; j < resident; j++ {
					k := harness.Normal20.Draw(r)
					z.Insert(k)
					tr.Insert(k)
				}
				for j := 0; j < ops; j++ {
					if r.Uint64()&1 == 0 {
						k := harness.Normal20.Draw(r)
						z.Insert(k)
						tr.Insert(k)
					} else if k, ok := z.ExtractMax(); ok {
						tr.ObserveExtract(k)
					}
				}
				z.Close()
				s = tr.Summary()
			}
			b.ReportMetric(s.Mean, "rank_err_mean")
			b.ReportMetric(s.P99, "rank_err_p99")
		})
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	benchAblation(b, harness.NewHazardZMSQ, func(c *core.Config) {})
}
func BenchmarkAblationNoMinSwap(b *testing.B) {
	benchAblation(b, harness.NewHazardZMSQ, func(c *core.Config) { c.NoMinSwap = true })
}
func BenchmarkAblationNoForcedInsert(b *testing.B) {
	benchAblation(b, harness.NewHazardZMSQ, func(c *core.Config) { c.NoForcedInsert = true })
}
func BenchmarkAblationNoTryLock(b *testing.B) {
	benchAblation(b, harness.NewHazardZMSQ, func(c *core.Config) { c.NoTryLock = true })
}
func BenchmarkAblationLeaky(b *testing.B) {
	benchAblation(b, harness.NewZMSQ, func(c *core.Config) {})
}
func BenchmarkAblationStrict(b *testing.B) {
	benchAblation(b, harness.NewHazardZMSQ, func(c *core.Config) { c.Batch = 0 })
}

func BenchmarkAblationHelper(b *testing.B) {
	benchAblation(b, newHelperZMSQ, func(*core.Config) {})
}

// newHelperZMSQ is the paper's memory-safe ZMSQ with harness.StartHelper
// driving its §5 helper pass until the queue is closed.
func newHelperZMSQ(cfg core.Config) *harness.ZMSQ {
	z := harness.NewHazardZMSQ(cfg)
	harness.StartHelper(z.Q)
	return z
}

// BenchmarkOpLatency quantifies §4.2's latency claims: small targetLen
// raises per-operation latency for both inserts and extractions, and the
// array set lowers single-thread latency. Reported metrics are p99
// nanoseconds per operation type.
func BenchmarkOpLatency(b *testing.B) {
	cells := []struct {
		name string
		cfg  core.Config
	}{
		{"target8", core.Config{Batch: 8, TargetLen: 8}},
		{"target72", core.Config{Batch: 48, TargetLen: 72}},
		{"target72-array", core.Config{Batch: 48, TargetLen: 72, SetMode: core.SetModeArray}},
	}
	for _, cell := range cells {
		cfg := cell.cfg
		b.Run(cell.name, func(b *testing.B) {
			var last harness.LatencyResult
			for i := 0; i < b.N; i++ {
				last = harness.RunOpLatency(func(int) pq.Queue { return harness.NewHazardZMSQ(cfg) },
					harness.ThroughputSpec{
						Threads: 1, TotalOps: 100_000, InsertPct: 50,
						Keys: harness.Normal20, Prefill: 100_000, Seed: uint64(i) + 1,
					})
			}
			b.ReportMetric(last.Insert.P99, "insP99ns")
			b.ReportMetric(last.Extract.P99, "extP99ns")
		})
	}
}
