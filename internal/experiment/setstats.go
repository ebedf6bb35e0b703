package experiment

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/xrand"
)

// runSetStats is the §3.2 set-size stability experiment: prefill a ZMSQ,
// run insert/extractMax pairs against it, and report the distribution of
// set sizes across non-leaf TNodes (the paper: mean 32, stddev 2.76 at
// targetLen=32 after 1M prefill and 8M pairs). Sizes come from the scale's
// operation count — prefill ops/2, then 4×ops pairs — so the full tier is
// the paper's run. A cell's Value is the mean non-leaf set size; the rest
// of the distribution, the tree depth and (for variants with the §5
// helper on, driven by harness.StartHelper for the whole run) the
// helper's moves are in Extra.
func runSetStats(ex *Experiment, sc Scale, opt Options) ([]CellResult, error) {
	ops := opsFor(ex, sc, opt)
	prefill, pairs := ops/2, 4*ops
	keys, keyName := keysFor(ex, opt)
	var out []CellResult
	for _, v := range ex.Variants {
		cfg, err := v.Config.coreConfig()
		if err != nil {
			return nil, fmt.Errorf("variant %q: %w", v.Name, err)
		}
		q := v.Config.newQueue(cfg, nil)
		stopHelper := func() int64 { return 0 }
		if v.Config.helper() {
			stopHelper = harness.StartHelper(q)
		}
		r := xrand.New(opt.Seed)
		for i := 0; i < prefill; i++ {
			q.Insert(keys.Draw(r), struct{}{})
		}
		for i := 0; i < pairs; i++ {
			q.Insert(keys.Draw(r), struct{}{})
			q.TryExtractMax()
		}
		moves := stopHelper()
		st := q.Stats()
		q.Close()

		sets := st.NonLeafSets
		out = append(out, CellResult{
			Cell: Cell{
				Experiment: ex.Name, Kind: ex.Kind, Variant: v.Name,
				Keys: keyName, Prefill: prefill, Ops: pairs, Repeats: 1, Seed: opt.Seed,
			},
			Unit: "set_size", Statistic: "mean",
			Samples: []float64{sets.Mean}, Value: sets.Mean,
			Extra: map[string]float64{
				"stddev":       sets.StdDev,
				"min":          sets.Min,
				"max":          sets.Max,
				"leaf_level":   float64(st.LeafLevel),
				"helper_moves": float64(moves),
			},
		})
		opt.progress("%s: %s non-leaf sets %v, leaf level %d, helper moves %d",
			ex.Name, v.Name, sets, st.LeafLevel, moves)
	}
	return out, nil
}
