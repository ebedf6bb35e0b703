package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/xrand"
)

// This file is the steady-state allocation probe. For each (variant, op)
// cell the queue is prefilled and warmed until every pooled context and
// scratch buffer has reached steady-state capacity, then the op runs in a paired insert/extract loop
// (so the queue size — and with it the node-recycling balance — stays
// constant) with the GC disabled while runtime.MemStats.Mallocs is
// sampled around the loop. The paired loop is the point: insert-only
// necessarily allocates (net new elements need memory); the
// zero-allocation claim is about steady state.

// runAllocExperiment expands variants × alloc ops into cells measuring
// allocations per operation.
func runAllocExperiment(ex *Experiment, sc Scale, opt Options) ([]CellResult, error) {
	runs := opt.Ops
	if runs <= 0 {
		runs = sc.AllocRuns
	}
	if runs <= 0 {
		runs = 2000
	}
	ops := ex.AllocOps
	if len(ops) == 0 {
		ops = []string{"insert+extract"}
	}
	var out []CellResult
	for _, v := range ex.Variants {
		cfg, err := v.Config.coreConfig()
		if err != nil {
			return nil, fmt.Errorf("variant %q: %w", v.Name, err)
		}
		for _, op := range ops {
			measured, perOp, err := measureAllocs(cfg, op, runs, opt.Seed)
			if err != nil {
				return nil, fmt.Errorf("variant %q: %w", v.Name, err)
			}
			cell := Cell{
				Experiment: ex.Name, Kind: ex.Kind, Variant: v.Name,
				Op: op, Ops: measured, Repeats: 1, Seed: opt.Seed,
			}
			out = append(out, CellResult{
				Cell: cell, Unit: "allocs/op", Statistic: "mean",
				Samples: []float64{perOp}, Value: perOp,
			})
			opt.progress("%s: %s/%s %.4f allocs/op over %d ops", ex.Name, v.Name, op, perOp, measured)
		}
	}
	return out, nil
}

// measureAllocs runs one alloc cell and returns the measured operation
// count and the allocations per operation.
func measureAllocs(cfg core.Config, op string, runs int, seed uint64) (int, float64, error) {
	q := core.New[struct{}](cfg)
	defer q.Close()
	r := xrand.New(seed)
	// Narrow keys collide often, exercising the set paths rather than
	// degenerate single-element nodes.
	draw := func() uint64 { return r.Uint64() >> 44 }

	for i := 0; i < 1<<13; i++ {
		q.Insert(draw(), struct{}{})
	}

	const batch = 64
	keys := make([]uint64, batch)
	dst := make([]core.Element[struct{}], 0, batch)
	var step func()
	var perRun int
	switch op {
	case "insert+extract":
		perRun = 1
		step = func() {
			q.Insert(draw(), struct{}{})
			q.TryExtractMax()
		}
	case "batch64":
		perRun = batch
		step = func() {
			for i := range keys {
				keys[i] = draw()
			}
			q.InsertBatch(keys, nil)
			dst = q.ExtractBatch(dst[:0], batch)
		}
	default:
		return 0, 0, fmt.Errorf("unknown alloc op %q (want insert+extract, batch64)", op)
	}

	// Warm pooled contexts, scratch capacities, and the node caches.
	for i := 0; i < 4096/perRun+1; i++ {
		step()
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	iters := runs / perRun
	if iters < 1 {
		iters = 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	measured := iters * perRun
	return measured, float64(after.Mallocs-before.Mallocs) / float64(measured), nil
}
