package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pq"
)

// Options are the run-wide knobs a front-end may layer over the spec.
// Zero values defer to the spec/scale.
type Options struct {
	// Scale names the size tier; "" selects "small".
	Scale string
	// Seed is the base workload seed (per-cell seeds derive from it).
	Seed uint64
	// Ops overrides the per-cell operation count (throughput/paired/
	// handoff items, alloc measured runs).
	Ops int
	// Threads overrides every experiment's thread list.
	Threads []int
	// Repeats overrides the scale's sample/round/trial/seed counts.
	Repeats int
	// Shards overrides the recovery experiment's sharded shape.
	Shards int
	// Keys overrides every experiment's key distribution.
	Keys string
	// Metrics forces Config.Metrics onto every zmsq/sharded cell.
	Metrics bool
	// OnQueue observes every queue a variant maker builds (live metrics
	// endpoints hook here).
	OnQueue func(pq.Queue)
	// Progress, when non-nil, receives human-oriented progress lines.
	Progress func(format string, args ...any)
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// Cell is one fully expanded grid point: everything needed to reproduce
// the measurement. Fields not meaningful for the cell's kind are zero and
// omitted from JSON.
type Cell struct {
	Experiment string `json:"experiment"`
	Kind       string `json:"kind"`
	Variant    string `json:"variant"`
	Threads    int    `json:"threads,omitempty"`
	Mix        int    `json:"mix,omitempty"`
	Keys       string `json:"keys,omitempty"`
	Prefill    int    `json:"prefill,omitempty"`
	Ops        int    `json:"ops,omitempty"`
	Batch      int    `json:"batch,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	QueueSize  int    `json:"queue_size,omitempty"`
	Extracts   int    `json:"extracts,omitempty"`
	Producers  int    `json:"producers,omitempty"`
	Consumers  int    `json:"consumers,omitempty"`
	Op         string `json:"op,omitempty"`
	CrashKind  string `json:"crash_kind,omitempty"`
	ValueBytes int    `json:"value_bytes,omitempty"`
	QPS        int    `json:"qps,omitempty"`
	Clients    int    `json:"clients,omitempty"`
	Tenants    int    `json:"tenants,omitempty"`
	Repeats    int    `json:"repeats,omitempty"`
	Seed       uint64 `json:"seed"`
}

// CellResult is the canonical measured cell: the spec, every sample, and
// the chosen statistic.
type CellResult struct {
	Cell Cell `json:"cell"`
	// Unit names what Value measures: "ops/s", "ns/handoff", "hit_pct",
	// "allocs/op", "pass", "p99_ms", "set_size".
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	// Statistic says how Value was chosen from Samples: "best" or "mean".
	Statistic string             `json:"statistic"`
	Value     float64            `json:"value"`
	Extra     map[string]float64 `json:"extra,omitempty"`
	// Metrics is the queue's instrumentation snapshot after the cell's last
	// run, on throughput-style cells whose queue had Config.Metrics on.
	Metrics *core.MetricsSnapshot `json:"metrics,omitempty"`
	Error   string                `json:"error,omitempty"`
}

// GridResult is one run of (part of) the grid under one environment.
type GridResult struct {
	Tool  string       `json:"tool"`
	Scale string       `json:"scale"`
	Seed  uint64       `json:"seed"`
	Env   Environment  `json:"env"`
	Cells []CellResult `json:"cells"`
}

// Run expands and executes the named experiments (nil = all) and returns
// the grid result. The environment block is captured once per run. The
// scale, every name and the key override are resolved before the first
// cell runs: a request that does not resolve returns a nil grid, having
// measured nothing. A cell that fails mid-run returns the grid so far
// with its error.
func (s *Spec) Run(names []string, opt Options) (*GridResult, error) {
	scaleName := opt.Scale
	if scaleName == "" {
		scaleName = "small"
	}
	sc, ok := s.Scales[scaleName]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown scale %q", scaleName)
	}
	if _, err := parseKeys(opt.Keys); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	var exps []*Experiment
	if names == nil {
		for i := range s.Experiments {
			exps = append(exps, &s.Experiments[i])
		}
	}
	for _, name := range names {
		ex := s.Experiment(name)
		if ex == nil {
			return nil, fmt.Errorf("experiment: unknown experiment %q", name)
		}
		exps = append(exps, ex)
	}
	grid := &GridResult{Tool: "expgrid", Scale: scaleName, Seed: opt.Seed, Env: CaptureEnv()}
	for _, ex := range exps {
		var (
			cells []CellResult
			err   error
		)
		switch ex.Kind {
		case "throughput":
			cells, err = runThroughput(ex, sc, opt)
		case "paired":
			cells, err = runPairedExperiment(ex, sc, opt)
		case "accuracy":
			cells, err = runAccuracy(ex, sc, opt)
		case "handoff":
			cells, err = runHandoff(ex, sc, opt)
		case "alloc":
			cells, err = runAllocExperiment(ex, sc, opt)
		case "recovery":
			cells, err = runRecoveryExperiment(ex, sc, opt)
		case "service":
			cells, err = runService(ex, sc, opt)
		case "setstats":
			cells, err = runSetStats(ex, sc, opt)
		default:
			err = fmt.Errorf("unknown kind %q", ex.Kind)
		}
		if err != nil {
			return grid, fmt.Errorf("experiment %q: %w", ex.Name, err)
		}
		grid.Cells = append(grid.Cells, cells...)
	}
	return grid, nil
}

// threadsFor resolves the cell thread list: override, spec list (0
// entries mean auto), or the default sweep.
func threadsFor(ex *Experiment, opt Options) []int {
	src := ex.Threads
	if len(opt.Threads) > 0 {
		src = opt.Threads
	}
	if len(src) == 0 {
		return defaultSweep()
	}
	out := make([]int, len(src))
	for i, t := range src {
		if t <= 0 {
			t = autoThreads()
		}
		out[i] = t
	}
	return out
}

func opsFor(ex *Experiment, sc Scale, opt Options) int {
	switch {
	case opt.Ops > 0:
		return opt.Ops
	case ex.Ops > 0:
		return ex.Ops
	case sc.Ops > 0:
		return sc.Ops
	}
	return 1000
}

func repeatsFor(ex *Experiment, sc Scale, opt Options) int {
	switch {
	case opt.Repeats > 0:
		return opt.Repeats
	case ex.Repeats > 0:
		return ex.Repeats
	case sc.Repeats > 0:
		return sc.Repeats
	}
	return 1
}

func keysFor(ex *Experiment, opt Options) (harness.KeyDist, string) {
	name := ex.Keys
	if opt.Keys != "" {
		name = opt.Keys
	}
	kd, _ := parseKeys(name) // both sources were checked: Validate, Run
	if name == "" {
		name = kd.String()
	}
	return kd, name
}

// runThroughput expands threads × variants × batch sizes, measuring each
// cell Repeats times and keeping the best sample.
func runThroughput(ex *Experiment, sc Scale, opt Options) ([]CellResult, error) {
	threads := threadsFor(ex, opt)
	ops := opsFor(ex, sc, opt)
	repeats := repeatsFor(ex, sc, opt)
	keys, keyName := keysFor(ex, opt)
	batches := ex.BatchSizes
	if len(batches) == 0 {
		batches = []int{0}
	}
	var out []CellResult
	for _, t := range threads {
		for _, v := range ex.Variants {
			mk, err := v.maker(opt)
			if err != nil {
				return nil, err
			}
			for _, bs := range batches {
				prefill := 0
				if ex.Prefill {
					prefill = ops
				}
				cell := Cell{
					Experiment: ex.Name, Kind: ex.Kind, Variant: v.Name,
					Threads: t, Mix: ex.Mix, Keys: keyName, Prefill: prefill,
					Ops: ops, Batch: bs, Shards: v.Shards,
					Repeats: repeats, Seed: opt.Seed,
				}
				res := CellResult{Cell: cell, Unit: "ops/s", Statistic: "best"}
				var last harness.ThroughputResult
				for rep := 0; rep < repeats; rep++ {
					tr := harness.RunThroughput(mk, harness.ThroughputSpec{
						Threads: t, TotalOps: ops, InsertPct: harness.Mix(ex.Mix),
						Keys: keys, Prefill: prefill, Batch: bs,
						Seed: opt.Seed + uint64(rep)*0x9e3779b97f4a7c15,
					})
					last = tr
					res.Samples = append(res.Samples, tr.OpsPerSec())
					if tr.OpsPerSec() > res.Value {
						res.Value = tr.OpsPerSec()
					}
				}
				res.Extra = map[string]float64{"failed_extract": float64(last.FailedExt)}
				res.Metrics = last.Metrics
				out = append(out, res)
			}
		}
	}
	return out, nil
}

// runPairedExperiment measures the experiment's two variants through the
// shared interleaved best-of loop; variant order in the spec defines
// side A (base) and side B (test).
func runPairedExperiment(ex *Experiment, sc Scale, opt Options) ([]CellResult, error) {
	threads := threadsFor(ex, opt)
	if len(threads) != 1 {
		return nil, fmt.Errorf("paired kind wants exactly one thread count, got %v", threads)
	}
	t := threads[0]
	ops := opsFor(ex, sc, opt)
	rounds := repeatsFor(ex, sc, opt)
	keys, keyName := keysFor(ex, opt)
	prefill := 0
	if ex.Prefill {
		prefill = ops
	}
	base, test := ex.Variants[0], ex.Variants[1]
	mkBase, err := base.maker(opt)
	if err != nil {
		return nil, err
	}
	mkTest, err := test.maker(opt)
	if err != nil {
		return nil, err
	}
	cellOf := func(v Variant) Cell {
		return Cell{
			Experiment: ex.Name, Kind: ex.Kind, Variant: v.Name,
			Threads: t, Mix: ex.Mix, Keys: keyName, Prefill: prefill,
			Ops: ops, Shards: v.Shards, Repeats: rounds, Seed: opt.Seed,
		}
	}
	lasts := map[bool]harness.ThroughputResult{}
	pr := RunPaired(PairedSpec{Rounds: rounds, Warmup: true, Seed: opt.Seed},
		func(sideB bool, seed uint64) float64 {
			mk := mkBase
			if sideB {
				mk = mkTest
			}
			tr := harness.RunThroughput(mk, harness.ThroughputSpec{
				Threads: t, TotalOps: ops, InsertPct: harness.Mix(ex.Mix),
				Keys: keys, Prefill: prefill, Seed: seed,
			})
			lasts[sideB] = tr
			return tr.OpsPerSec()
		})
	for _, r := range pr.Rounds {
		opt.progress("%s: round %d  %s=%.2f Mops/s  %s=%.2f Mops/s",
			ex.Name, r.Round, base.Name, r.A/1e6, test.Name, r.B/1e6)
	}
	results := make([]CellResult, 2)
	for i, side := range []struct {
		v    Variant
		best float64
		pick func(PairedRound) float64
	}{
		{base, pr.BestA, func(r PairedRound) float64 { return r.A }},
		{test, pr.BestB, func(r PairedRound) float64 { return r.B }},
	} {
		res := CellResult{Cell: cellOf(side.v), Unit: "ops/s", Statistic: "best", Value: side.best}
		for _, r := range pr.Rounds {
			res.Samples = append(res.Samples, side.pick(r))
		}
		res.Extra = map[string]float64{"failed_extract": float64(lasts[i == 1].FailedExt)}
		res.Metrics = lasts[i == 1].Metrics
		results[i] = res
	}
	return results, nil
}

// runAccuracy expands sizes × extract counts × variants, averaging the
// hit rate and the rank-error distribution over the scale's trial count.
func runAccuracy(ex *Experiment, sc Scale, opt Options) ([]CellResult, error) {
	trials := sc.Trials
	if opt.Repeats > 0 {
		trials = opt.Repeats
	}
	if trials < 1 {
		trials = 1
	}
	var out []CellResult
	for _, size := range ex.Sizes {
		for _, extracts := range size.Extracts {
			for _, v := range ex.Variants {
				mk, err := v.maker(opt)
				if err != nil {
					return nil, err
				}
				threads := v.Threads
				if threads < 1 {
					threads = 1
				}
				cell := Cell{
					Experiment: ex.Name, Kind: ex.Kind, Variant: v.Name,
					Threads: threads, QueueSize: size.QueueSize, Extracts: extracts,
					Repeats: trials, Seed: opt.Seed,
				}
				res := CellResult{Cell: cell, Unit: "hit_pct", Statistic: "mean"}
				hits, failures := 0.0, 0.0
				var rankMean, rankP99, rankMax float64
				for trial := 0; trial < trials; trial++ {
					ar := harness.RunAccuracy(mk, threads, harness.AccuracySpec{
						QueueSize: size.QueueSize, Extracts: extracts,
						Seed: opt.Seed + uint64(trial)*977,
					})
					res.Samples = append(res.Samples, 100*ar.HitRate())
					hits += 100 * ar.HitRate()
					failures += float64(ar.Failures)
					rankMean += ar.Rank.Mean
					rankP99 += ar.Rank.P99
					rankMax = max(rankMax, ar.Rank.Worst)
				}
				res.Value = hits / float64(trials)
				res.Extra = map[string]float64{
					"failures":      failures / float64(trials),
					"rank_err_mean": rankMean / float64(trials),
					"rank_err_p99":  rankP99 / float64(trials),
					"rank_err_max":  rankMax,
				}
				out = append(out, res)
			}
		}
	}
	return out, nil
}

// runHandoff expands ratios × variants. Variants with a Config or
// Blocking flag run the ZMSQ handoff (which can block on the futex
// ring); registry variants run the generic spinning handoff.
func runHandoff(ex *Experiment, sc Scale, opt Options) ([]CellResult, error) {
	items := opt.Ops
	if items <= 0 {
		items = ex.Ops
	}
	if items <= 0 {
		items = sc.Handoffs
	}
	if items <= 0 {
		items = 1000
	}
	var out []CellResult
	for _, ratio := range ex.Ratios {
		prod, cons := ratio[0], ratio[1]
		for _, v := range ex.Variants {
			spec := harness.HandoffSpec{
				Producers: prod, Consumers: cons, TotalItems: items, Seed: opt.Seed,
			}
			var hr harness.HandoffResult
			if v.Queue == "zmsq" && (v.Config != nil || v.Blocking) {
				cfg, err := v.Config.coreConfig()
				if err != nil {
					return nil, err
				}
				hr = harness.RunHandoffZMSQ(cfg, v.Blocking, spec)
			} else {
				mk, err := v.maker(opt)
				if err != nil {
					return nil, err
				}
				hr = harness.RunHandoff(mk, spec)
			}
			cell := Cell{
				Experiment: ex.Name, Kind: ex.Kind, Variant: v.Name,
				Producers: prod, Consumers: cons, Ops: items,
				Repeats: 1, Seed: opt.Seed,
			}
			perHandoff := float64(hr.Elapsed.Nanoseconds()) / float64(max(items, 1))
			res := CellResult{
				Cell: cell, Unit: "ns/handoff", Statistic: "mean",
				Samples: []float64{perHandoff}, Value: perHandoff,
				Extra: map[string]float64{
					"mean_latency_ns": float64(hr.MeanLatency.Nanoseconds()),
					"p99_latency_ns":  float64(hr.P99Latency.Nanoseconds()),
					"cpu_sec":         hr.CPUSeconds,
				},
			}
			out = append(out, res)
			opt.progress("%s: %s prod=%d cons=%d %.0f ns/handoff", ex.Name, v.Name, prod, cons, perHandoff)
		}
	}
	return out, nil
}
