package experiment

import (
	"fmt"
	"os"

	"repro/internal/fault"
	"repro/internal/harness"
)

// chaosRounds is every chaos cell's count of mixed+strict rounds.
const chaosRounds = 2

// chaosRun is one chaos cell before it runs: the variant and its plan.
type chaosRun struct {
	v    Variant
	plan harness.ChaosPlan
}

// chaosRuns expands a chaos experiment into its cells: ratios × variants
// × shapes × seeds. A zmsq variant runs the experiment's queue config
// under fault.DefaultPlan on the single-queue shape and, when the
// experiment (or Options.Shards) names more than one shard, on the
// sharded front-end; a registered-maker variant runs the same workload
// without faults on its one shape. Seeds count up from Options.Seed.
func chaosRuns(ex *Experiment, sc Scale, opt Options) ([]chaosRun, error) {
	cfg, err := ex.Config.coreConfig()
	if err != nil {
		return nil, err
	}
	if ex.Config.hazard() || ex.Config.blocking() {
		return nil, errCoreOnly
	}
	shards := ex.Shards
	if opt.Shards > 0 {
		shards = opt.Shards
	}
	shapes := []int{0}
	if shards > 1 {
		shapes = append(shapes, shards)
	}
	ratios := ex.Ratios
	if len(ratios) == 0 {
		ratios = [][2]int{{4, 4}}
	}
	keys, _ := keysFor(ex, opt)
	seeds := repeatsFor(ex, sc, opt)
	var runs []chaosRun
	for _, ratio := range ratios {
		for _, v := range ex.Variants {
			isCore := v.Queue == "zmsq" || v.Queue == ""
			for _, shape := range shapes {
				if !isCore && shape != 0 {
					continue
				}
				for s := 0; s < seeds; s++ {
					plan := harness.ChaosPlan{
						Seed:        opt.Seed + uint64(s),
						Rounds:      chaosRounds,
						Producers:   ratio[0],
						Consumers:   ratio[1],
						OpsPerRound: opsFor(ex, sc, opt),
						Keys:        keys,
					}
					if isCore {
						plan.Faults = fault.DefaultPlan()
						plan.Queue = cfg
						plan.Shards = shape
						plan.Durable = ex.Durable
					}
					runs = append(runs, chaosRun{v: v, plan: plan})
				}
			}
		}
	}
	return runs, nil
}

// runChaosExperiment runs every chaos cell. A cell's Value is 1 when every
// contract held (conservation, never-fails, the b+1 window, the invariants
// between rounds, and for durable cells a log that replays to empty), 0
// otherwise, with the violations in Error; Extra carries the counts and
// each consulted fault point's calls and firings.
func runChaosExperiment(ex *Experiment, sc Scale, opt Options) ([]CellResult, error) {
	runs, err := chaosRuns(ex, sc, opt)
	if err != nil {
		return nil, err
	}
	_, keyName := keysFor(ex, opt)
	var out []CellResult
	for _, r := range runs {
		var (
			res  harness.ChaosResult
			rerr error
		)
		if r.v.Queue == "zmsq" || r.v.Queue == "" {
			res, rerr = runChaosCore(r.plan)
		} else {
			mk, err := r.v.maker(opt)
			if err != nil {
				return nil, err
			}
			res, rerr = harness.RunChaosBaseline(r.v.Name, mk, r.plan)
		}
		cr := CellResult{
			Cell: Cell{
				Experiment: ex.Name, Kind: ex.Kind, Variant: res.Name,
				Keys: keyName, Ops: r.plan.OpsPerRound, Shards: r.plan.Shards,
				Producers: r.plan.Producers, Consumers: r.plan.Consumers,
				Repeats: 1, Seed: r.plan.Seed,
			},
			Unit: "pass", Statistic: "mean",
			Extra: map[string]float64{
				"inserted":        float64(res.Inserted),
				"extracted":       float64(res.Extracted),
				"failed_extracts": float64(res.FailedExtracts),
				"strict_extracts": float64(res.Report.StrictExtracts),
				"max_strict_rank": float64(res.Report.MaxStrictRank),
			},
		}
		for point, calls := range res.FaultCalls {
			cr.Extra["fault_calls_"+point] = float64(calls)
			cr.Extra["fault_fired_"+point] = float64(res.FaultFired[point])
		}
		if res.WAL != nil {
			cr.Extra["wal_records"] = float64(res.WAL.Records)
			cr.Extra["wal_syncs"] = float64(res.WAL.Syncs)
			cr.Extra["wal_snapshots"] = float64(res.WAL.Snapshots)
		}
		if rerr == nil {
			cr.Value = 1
		} else {
			cr.Error = rerr.Error()
			for _, v := range res.Report.Violations {
				cr.Error += fmt.Sprintf("; violation: %s", v)
			}
		}
		cr.Samples = []float64{cr.Value}
		out = append(out, cr)
		opt.progress("%s: %-14s seed=%-4d inserted=%d extracted=%d strict=%d maxrank=%d pass=%v",
			ex.Name, cr.Cell.Variant, r.plan.Seed, res.Inserted, res.Extracted,
			res.Report.StrictExtracts, res.Report.MaxStrictRank, rerr == nil)
	}
	return out, nil
}

// runChaosCore runs one core chaos plan, a durable one over a fresh
// temporary log directory.
func runChaosCore(plan harness.ChaosPlan) (harness.ChaosResult, error) {
	if plan.Durable {
		dir, err := os.MkdirTemp("", "expgrid-chaos-*")
		if err != nil {
			return harness.ChaosResult{}, fmt.Errorf("chaos temp dir: %w", err)
		}
		defer os.RemoveAll(dir)
		plan.WALDir = dir
	}
	return harness.RunChaos(plan)
}
