package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/harness"
)

// Rows flattens a grid into harness.Recorder rows so every front-end
// renders text/CSV through the one existing writer.
func Rows(grid *GridResult) []harness.Row {
	var rows []harness.Row
	for _, c := range grid.Cells {
		row := harness.Row{
			Experiment: c.Cell.Experiment,
			Queue:      c.Cell.Variant,
			Labels:     map[string]string{},
			Metrics:    map[string]float64{},
		}
		switch c.Cell.Kind {
		case "throughput", "paired":
			row.Labels["threads"] = strconv.Itoa(c.Cell.Threads)
			row.Labels["mix"] = strconv.Itoa(c.Cell.Mix)
			row.Labels["keys"] = c.Cell.Keys
			if c.Cell.Batch > 0 {
				row.Labels["batch"] = strconv.Itoa(c.Cell.Batch)
			}
			if c.Cell.Shards > 0 {
				row.Labels["shards"] = strconv.Itoa(c.Cell.Shards)
			}
			row.Metrics["Mops/s"] = c.Value / 1e6
			row.Metrics["failedExtract"] = c.Extra["failed_extract"]
		case "accuracy":
			row.Labels["size"] = strconv.Itoa(c.Cell.QueueSize)
			row.Labels["extracts"] = strconv.Itoa(c.Cell.Extracts)
			row.Metrics["hit%"] = c.Value
			row.Metrics["failures"] = c.Extra["failures"]
			row.Metrics["rankErrMean"] = c.Extra["rank_err_mean"]
			row.Metrics["rankErrP99"] = c.Extra["rank_err_p99"]
			row.Metrics["rankErrMax"] = c.Extra["rank_err_max"]
		case "handoff":
			row.Labels["producers"] = strconv.Itoa(c.Cell.Producers)
			row.Labels["consumers"] = strconv.Itoa(c.Cell.Consumers)
			row.Metrics["ns/handoff"] = c.Value
			row.Metrics["meanLatNs"] = c.Extra["mean_latency_ns"]
			row.Metrics["cpuSec"] = c.Extra["cpu_sec"]
		case "alloc":
			row.Labels["op"] = c.Cell.Op
			row.Metrics["allocs/op"] = c.Value
		case "recovery":
			row.Labels["crash"] = c.Cell.CrashKind
			row.Labels["shards"] = strconv.Itoa(c.Cell.Shards)
			row.Labels["valueBytes"] = strconv.Itoa(c.Cell.ValueBytes)
			row.Metrics["pass"] = c.Value
			row.Metrics["atRisk"] = c.Extra["at_risk"]
			row.Metrics["opsPerSync"] = c.Extra["ops_per_sync"]
		case "service":
			row.Labels["qps"] = strconv.Itoa(c.Cell.QPS)
			row.Labels["clients"] = strconv.Itoa(c.Cell.Clients)
			row.Labels["tenants"] = strconv.Itoa(c.Cell.Tenants)
			row.Labels["shards"] = strconv.Itoa(c.Cell.Shards)
			row.Metrics["p99ms"] = c.Value
			row.Metrics["p50ms"] = c.Extra["p50_ms"]
			row.Metrics["achievedQPS"] = c.Extra["achieved_qps"]
			row.Metrics["batchP50"] = c.Extra["batch_p50"]
		case "setstats":
			row.Labels["keys"] = c.Cell.Keys
			row.Metrics["setMean"] = c.Value
			row.Metrics["setStddev"] = c.Extra["stddev"]
			row.Metrics["setMin"] = c.Extra["min"]
			row.Metrics["setMax"] = c.Extra["max"]
			row.Metrics["leafLevel"] = c.Extra["leaf_level"]
			row.Metrics["helperMoves"] = c.Extra["helper_moves"]
		}
		rows = append(rows, row)
	}
	return rows
}

var validUnits = map[string]bool{
	"ops/s": true, "ns/handoff": true, "hit_pct": true, "allocs/op": true, "pass": true,
	"p99_ms": true, "set_size": true,
}

// ValidateGrid checks a grid result against the canonical schema — shape,
// not values — so smoke tests can assert any emitted document is one a
// future reader (trajectory diffing, plotting) can rely on.
func ValidateGrid(grid *GridResult) error {
	if grid == nil {
		return fmt.Errorf("grid: nil")
	}
	if grid.Tool == "" || grid.Scale == "" {
		return fmt.Errorf("grid: tool %q / scale %q must be set", grid.Tool, grid.Scale)
	}
	e := grid.Env
	if e.GoVersion == "" || e.GitSHA == "" || e.Date == "" || e.GOMAXPROCS < 1 || e.Cores < 1 || e.OS == "" || e.Arch == "" {
		return fmt.Errorf("grid: incomplete environment block %+v", e)
	}
	if len(grid.Cells) == 0 {
		return fmt.Errorf("grid: no cells")
	}
	for i, c := range grid.Cells {
		if c.Cell.Experiment == "" || c.Cell.Variant == "" || !kinds[c.Cell.Kind] {
			return fmt.Errorf("grid: cell %d has incomplete spec %+v", i, c.Cell)
		}
		if !validUnits[c.Unit] {
			return fmt.Errorf("grid: cell %d (%s/%s) has unknown unit %q", i, c.Cell.Experiment, c.Cell.Variant, c.Unit)
		}
		if c.Statistic != "best" && c.Statistic != "mean" {
			return fmt.Errorf("grid: cell %d (%s/%s) has unknown statistic %q", i, c.Cell.Experiment, c.Cell.Variant, c.Statistic)
		}
		if len(c.Samples) == 0 {
			return fmt.Errorf("grid: cell %d (%s/%s) has no samples", i, c.Cell.Experiment, c.Cell.Variant)
		}
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
			return fmt.Errorf("grid: cell %d (%s/%s) has non-finite value", i, c.Cell.Experiment, c.Cell.Variant)
		}
	}
	return nil
}

// MarkdownSummary renders per-gate pass/fail as a GitHub-flavored table
// for the CI job summary.
func MarkdownSummary(grid *GridResult, gates []GateResult, regs []Regression) string {
	regBy := map[string]Regression{}
	for _, r := range regs {
		regBy[r.Gate] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### Experiment grid (`%s` scale, seed %d, %.12s)\n\n", grid.Scale, grid.Seed, grid.Env.GitSHA)
	b.WriteString("| gate | metric | value | threshold | status |\n")
	b.WriteString("|---|---|---:|---:|---|\n")
	for _, g := range gates {
		status := ":white_check_mark: pass"
		switch {
		case g.Skipped:
			status = ":fast_forward: skipped (" + g.SkipReason + ")"
		case !g.Pass:
			status = ":x: **fail**"
		}
		if r, ok := regBy[g.Name]; ok {
			status += " — regression: " + r.Why
		}
		fmt.Fprintf(&b, "| %s | %s | %.4f | %.4f | %s |\n", g.Name, g.Metric, g.Value, g.Threshold, status)
	}
	b.WriteString("\n")
	return b.String()
}
