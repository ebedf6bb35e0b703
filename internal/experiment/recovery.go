package experiment

import (
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/wal"
)

// runRecoveryExperiment sweeps crash-recovery scenarios: every crash kind
// against both the single-queue shape and the sharded shape, each over
// the scale's seed count. A cell's Value is 1 (conserved) or 0, with the
// conservation detail in Extra and the verdict text in Error.
func runRecoveryExperiment(ex *Experiment, sc Scale, opt Options) ([]CellResult, error) {
	seeds := sc.RecoverySeeds
	if opt.Repeats > 0 {
		seeds = opt.Repeats
	}
	if seeds < 1 {
		seeds = 1
	}
	shards := ex.Shards
	if opt.Shards > 0 {
		shards = opt.Shards
	}
	if shards < 2 {
		shards = 4
	}
	cfg, err := ex.Config.coreConfig()
	if err != nil {
		return nil, err
	}
	if ex.Config.hazard() {
		return nil, errHazard
	}
	valueSizes := ex.ValueSizes
	if len(valueSizes) == 0 {
		valueSizes = []int{0}
	}
	var out []CellResult
	for _, shape := range []int{1, shards} {
		for _, kind := range harness.Kinds() {
			for _, vb := range valueSizes {
				for s := 0; s < seeds; s++ {
					dir, err := os.MkdirTemp("", "expgrid-recovery-*")
					if err != nil {
						return nil, fmt.Errorf("recovery temp dir: %w", err)
					}
					plan := harness.RecoveryPlan{
						Seed:       opt.Seed + uint64(s),
						Kind:       kind,
						Shards:     shape,
						ValueBytes: vb,
						Dir:        dir,
						Queue:      cfg,
					}
					res, rerr := harness.RunRecovery(plan)
					os.RemoveAll(dir)

					cell := Cell{
						Experiment: ex.Name, Kind: ex.Kind, Variant: res.Name,
						CrashKind: res.Kind, Shards: shape, ValueBytes: vb,
						Repeats: 1, Seed: plan.Seed,
					}
					cr := CellResult{
						Cell: cell, Unit: "pass", Statistic: "mean",
						Extra: map[string]float64{
							"inserted":       float64(res.Inserted),
							"extracted":      float64(res.Extracted),
							"recovered":      float64(res.Recovered),
							"at_risk":        float64(res.Report.AtRisk),
							"lost_bytes":     float64(res.Crash.LostBytes),
							"values_checked": float64(res.Report.ValuesChecked),
						},
					}
					if res.Stats.Syncs > 0 {
						cr.Extra["ops_per_sync"] = float64(res.Stats.Ops) / float64(res.Stats.Syncs)
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
					opt.progress("%s: %-12s %-13s vb=%-5d seed=%-4d inserted=%d extracted=%d recovered=%d atrisk=%d pass=%v",
						ex.Name, res.Name, res.Kind, vb, plan.Seed, res.Inserted, res.Extracted,
						res.Recovered, res.Report.AtRisk, rerr == nil)
				}
			}
		}
	}
	amp, err := snapshotWriteAmpCell(ex, opt)
	if err != nil {
		return nil, err
	}
	out = append(out, amp)
	return out, nil
}

// snapshotWriteAmpCell measures the incremental-snapshot
// write-amplification win the recovery gate records next to the crash
// scenarios: a delta written after a small operation window against a
// large live state must be far smaller than the full state (what a
// full-rewrite snapshot policy pays every time). The cell passes (Value
// 1) when the delta is at least 20× smaller — the same margin
// wal.TestIncrementalSnapshotSmallerThanFull pins — and carries the raw
// byte counts in Extra for the BENCH_recovery.json table.
func snapshotWriteAmpCell(ex *Experiment, opt Options) (CellResult, error) {
	cr := CellResult{
		Cell: Cell{Experiment: ex.Name, Kind: ex.Kind, Variant: "snapshot-write-amp", Seed: opt.Seed},
		Unit: "pass", Statistic: "mean",
	}
	dir, err := os.MkdirTemp("", "expgrid-snapamp-*")
	if err != nil {
		return cr, fmt.Errorf("snapshot write-amp temp dir: %w", err)
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(wal.Options{Dir: dir, GroupCommit: wal.DefaultGroupCommit})
	if err != nil {
		return cr, err
	}
	const live, window = 5000, 20
	keys := make([]uint64, live)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	l.AppendInserts(keys, nil)
	if err := l.Snapshot(); err != nil {
		return cr, err
	}
	full := l.Stats().SnapshotBytesWritten // delta #0 carries the full state
	for i := uint64(1); i <= window/2; i++ {
		l.AppendInserts([]uint64{uint64(live) + 10000 + i}, nil)
		l.AppendExtracts([]uint64{i})
	}
	if err := l.Snapshot(); err != nil {
		return cr, err
	}
	delta := l.Stats().SnapshotBytesWritten - full
	if err := l.Close(); err != nil {
		return cr, err
	}

	cr.Extra = map[string]float64{
		"full_bytes":  float64(full),
		"delta_bytes": float64(delta),
		"live_keys":   live,
		"window_ops":  window,
	}
	if delta > 0 {
		cr.Extra["amplification_win"] = float64(full) / float64(delta)
	}
	if delta > 0 && delta*20 < full {
		cr.Value = 1
	} else {
		cr.Error = fmt.Sprintf("incremental snapshot wrote %d bytes for a %d-op window; full state is %d — no write-amplification win", delta, window, full)
	}
	cr.Samples = []float64{cr.Value}
	opt.progress("%s: snapshot-write-amp full=%dB delta=%dB win=%.1fx pass=%v",
		ex.Name, full, delta, cr.Extra["amplification_win"], cr.Value == 1)
	return cr, nil
}
