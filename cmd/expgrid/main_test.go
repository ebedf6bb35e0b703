package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/harness"
	"repro/internal/pq"
)

func init() {
	harness.Register("dropping", func(int) pq.Queue { return &droppingQueue{GlobalHeap: pq.NewGlobalHeap(0)} })
	harness.Register("losing", func(int) pq.Queue { return &losingQueue{GlobalHeap: pq.NewGlobalHeap(0)} })
}

// losingQueue is a strict heap that loses its second insert.
type losingQueue struct {
	*pq.GlobalHeap
	inserts atomic.Int64
}

func (q *losingQueue) Insert(key uint64) {
	if q.inserts.Add(1) != 2 {
		q.GlobalHeap.Insert(key)
	}
}

// droppingQueue is a strict heap that loses one element: its first
// extraction drops the key it took and hands out key 0 in its place.
type droppingQueue struct {
	*pq.GlobalHeap
	dropped atomic.Bool
}

func (q *droppingQueue) ExtractMax() (uint64, bool) {
	k, ok := q.GlobalHeap.ExtractMax()
	if ok && q.dropped.CompareAndSwap(false, true) {
		return 0, true
	}
	return k, ok
}

// writeSpec writes a grid spec for one test and returns its path.
func writeSpec(t *testing.T, spec string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// expgrid runs the front door in-process and returns what it printed.
func expgrid(t *testing.T, wantCode int, args ...string) (stdout, stderr string) {
	t.Helper()
	var o, e bytes.Buffer
	if code := run(args, &o, &e); code != wantCode {
		t.Fatalf("expgrid %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", args, code, wantCode, &o, &e)
	}
	return o.String(), e.String()
}

// readGrid loads and schema-checks the expgrid.json under dir.
func readGrid(t *testing.T, dir string) *experiment.GridResult {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "expgrid.json"))
	if err != nil {
		t.Fatalf("reading expgrid.json: %v", err)
	}
	var grid experiment.GridResult
	if err := json.Unmarshal(raw, &grid); err != nil {
		t.Fatalf("expgrid.json does not parse: %v", err)
	}
	if err := experiment.ValidateGrid(&grid); err != nil {
		t.Fatalf("grid fails canonical schema: %v", err)
	}
	return &grid
}

// TestSmokeGridArtifacts runs a slice of the paper grid at the smoke
// scale through the same code path main uses and validates every emitted
// artifact against the canonical schema — shape, not values. This is the
// regression net for "a refactor silently changed the result files".
func TestSmokeGridArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) benchmark cells")
	}
	dir := t.TempDir()
	// Two experiments cover three row shapes: throughput, accuracy via
	// table1 would dominate runtime, so pair fig5c with the fig6 handoff.
	stdout, _ := expgrid(t, 0, "-experiments", "fig5c,fig6", "-scale", "smoke", "-out", dir)
	grid := readGrid(t, dir)
	for _, c := range grid.Cells {
		if c.Cell.Experiment != "fig5c" && c.Cell.Experiment != "fig6" {
			t.Fatalf("unrequested cell %s/%s", c.Cell.Experiment, c.Cell.Variant)
		}
	}

	// expgrid.csv: header plus one record per cell, rectangular.
	f, err := os.Open(filepath.Join(dir, "expgrid.csv"))
	if err != nil {
		t.Fatalf("opening expgrid.csv: %v", err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll() // rejects ragged rows
	if err != nil {
		t.Fatalf("expgrid.csv does not parse: %v", err)
	}
	if len(records) != len(grid.Cells)+1 {
		t.Fatalf("expgrid.csv has %d records, want %d (header + cells)", len(records), len(grid.Cells)+1)
	}
	header := records[0]
	if header[0] != "experiment" || header[1] != "queue" {
		t.Errorf("csv header starts %v, want [experiment queue ...]", header[:2])
	}
	cols := map[string]bool{}
	for _, h := range header {
		if cols[h] {
			t.Errorf("csv header repeats column %q", h)
		}
		cols[h] = true
	}
	for _, want := range []string{"threads", "Mops/s", "producers", "consumers", "ns/handoff"} {
		if !cols[want] {
			t.Errorf("csv header lacks %q: %v", want, header)
		}
	}

	// expgrid.txt: one line per cell, the same lines stdout carried.
	txt, err := os.ReadFile(filepath.Join(dir, "expgrid.txt"))
	if err != nil {
		t.Fatalf("reading expgrid.txt: %v", err)
	}
	if lines := strings.Count(string(txt), "\n"); lines != len(grid.Cells) {
		t.Errorf("expgrid.txt has %d lines, want %d", lines, len(grid.Cells))
	}
	if !strings.Contains(stdout, string(txt)) {
		t.Errorf("stdout does not carry the rows written to expgrid.txt")
	}
}

// TestPaperSmoke runs the whole paper grid — what the runall binary used to be —
// and checks the cell families this front door added to it: the rank
// error of table1, the set sizes of §3.2, and Figures 7–8, whose every
// cell ran (the run fails on a distance that differs from Dijkstra's).
func TestPaperSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole paper grid at smoke scale")
	}
	dir := t.TempDir()
	expgrid(t, 0, "-experiments", "paper", "-scale", "smoke", "-out", dir)
	grid := readGrid(t, dir)
	seen := map[string]int{}
	for _, c := range grid.Cells {
		seen[c.Cell.Experiment]++
		if c.Cell.Kind == "sssp" && (c.Unit != "ms" || c.Cell.Graph == "" || c.Extra["nodes"] <= 0) {
			t.Errorf("%s cell %s: %v %s on graph %q, want a timing in ms on a named graph", c.Cell.Experiment, c.Cell.Variant, c.Value, c.Unit, c.Cell.Graph)
		}
		switch c.Cell.Experiment {
		case "table1":
			for _, key := range []string{"rank_err_mean", "rank_err_p99", "rank_err_max"} {
				if _, ok := c.Extra[key]; !ok {
					t.Fatalf("table1 cell %s lacks %s: %v", c.Cell.Variant, key, c.Extra)
				}
			}
		case "sec32":
			if c.Unit != "set_size" || c.Value <= 0 {
				t.Errorf("sec32 cell %s: %v %s, want a positive set_size", c.Cell.Variant, c.Value, c.Unit)
			}
			if _, ok := c.Extra["helper_moves"]; !ok {
				t.Errorf("sec32 cell %s lacks helper_moves: %v", c.Cell.Variant, c.Extra)
			}
		}
	}
	spec, err := experiment.LoadSpec("")
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	for _, name := range spec.PaperExperiments() {
		if seen[name] == 0 {
			t.Errorf("paper grid ran no %s cell", name)
		}
		if ex := spec.Experiment(name); ex.Kind == "sssp" && seen[name] != len(ex.Variants)*len(ex.Threads) {
			t.Errorf("%s ran %d cells, want %d variants × %d thread counts", name, seen[name], len(ex.Variants), len(ex.Threads))
		}
	}
	for _, name := range []string{"fig7a", "fig7b", "fig8"} {
		if ex := spec.Experiment(name); ex == nil || !ex.Paper || ex.Kind != "sssp" {
			t.Errorf("%s is not a paper sssp experiment", name)
		}
	}
	if seen["sec32"] != 2 {
		t.Errorf("sec32 ran %d cells, want plain + helper", seen["sec32"])
	}
}

// TestReportShape pins the document CI archives as
// results/BENCH_alloc.json: downstream diffing (the trajectory, plots)
// breaks silently if a field is renamed or a cell disappears, so the
// shape is asserted here against the canonical grid schema.
func TestReportShape(t *testing.T) {
	dir := t.TempDir()
	// Small run count: shape, not a verdict — this few operations do not
	// amortize the tree's growth, so the gate may read red (exit 1).
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-gates", "alloc", "-ops", "4000", "-out", dir}, &stdout, &stderr); code != 0 && code != 1 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String()+stderr.String(), "gate alloc") {
		t.Errorf("no alloc verdict printed:\n%s%s", &stdout, &stderr)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_alloc.json"))
	if err != nil {
		t.Fatalf("reading BENCH_alloc.json: %v", err)
	}
	var rep experiment.GateReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_alloc.json does not parse: %v", err)
	}
	grid := &experiment.GridResult{Tool: rep.Tool, Scale: rep.Scale, Seed: rep.Seed, Env: rep.Env, Cells: rep.Cells}
	if err := experiment.ValidateGrid(grid); err != nil {
		t.Fatalf("report fails canonical schema: %v", err)
	}

	spec, err := experiment.LoadSpec("")
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	ex := spec.Experiment("alloc")
	if want := len(ex.Variants) * len(ex.AllocOps); len(rep.Cells) != want {
		t.Fatalf("got %d cells, want %d (variants × ops)", len(rep.Cells), want)
	}
	seen := map[[2]string]bool{}
	for _, c := range rep.Cells {
		if c.Unit != "allocs/op" {
			t.Errorf("cell %s/%s: Unit = %q, want allocs/op", c.Cell.Variant, c.Cell.Op, c.Unit)
		}
		if c.Cell.Ops <= 0 || c.Cell.Ops > 4000 {
			t.Errorf("cell %s/%s: Ops = %d, want in (0, 4000] from -ops", c.Cell.Variant, c.Cell.Op, c.Cell.Ops)
		}
		if c.Value < 0 {
			t.Errorf("cell %s/%s: Value = %v, want >= 0", c.Cell.Variant, c.Cell.Op, c.Value)
		}
		key := [2]string{c.Cell.Variant, c.Cell.Op}
		if seen[key] {
			t.Errorf("duplicate cell %s/%s", key[0], key[1])
		}
		seen[key] = true
	}
	for _, v := range ex.Variants {
		for _, op := range ex.AllocOps {
			if !seen[[2]string{v.Name, op}] {
				t.Errorf("missing cell %s/%s", v.Name, op)
			}
		}
	}

	res, g := rep.Gate, spec.Gate("alloc")
	if res.Name != "alloc" || res.Metric != "allocs/op" || res.Kind != g.Kind || res.Threshold != g.Threshold {
		t.Errorf("gate result = %+v, want name=alloc metric=allocs/op kind=%s threshold=%v", res, g.Kind, g.Threshold)
	}
}

// TestReportJSONRoundTrip asserts the wire field names — the part a Go
// rename would silently change.
func TestReportJSONRoundTrip(t *testing.T) {
	in := experiment.GateReport{
		Tool:  "expgrid",
		Env:   experiment.CaptureEnv(),
		Scale: "small",
		Seed:  1,
		Gate:  experiment.GateResult{Name: "alloc", Kind: "max", Metric: "allocs/op", Value: 0.25, Threshold: 0.05},
		Cells: []experiment.CellResult{{
			Cell: experiment.Cell{Experiment: "alloc", Kind: "alloc", Variant: "memory-safe-list",
				Op: "insert+extract", Ops: 100, Repeats: 1, Seed: 1},
			Unit: "allocs/op", Statistic: "mean", Samples: []float64{0.25}, Value: 0.25,
		}},
	}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("unmarshal into map: %v", err)
	}
	for _, key := range []string{"tool", "env", "scale", "seed", "gate", "cells"} {
		if _, ok := m[key]; !ok {
			t.Errorf("top-level JSON key %q missing", key)
		}
	}
	env, ok := m["env"].(map[string]any)
	if !ok {
		t.Fatalf("env = %v, want object", m["env"])
	}
	for _, key := range []string{"git_sha", "go", "gomaxprocs", "cores", "os", "arch", "date"} {
		if _, ok := env[key]; !ok {
			t.Errorf("env JSON key %q missing", key)
		}
	}
	cells, ok := m["cells"].([]any)
	if !ok || len(cells) != 1 {
		t.Fatalf("cells = %v, want one-element array", m["cells"])
	}
	cell := cells[0].(map[string]any)
	for _, key := range []string{"cell", "unit", "samples", "statistic", "value"} {
		if _, ok := cell[key]; !ok {
			t.Errorf("cell JSON key %q missing", key)
		}
	}
	if _, ok := cell["metrics"]; ok {
		t.Errorf("cell without a snapshot carries a metrics key")
	}
	inner := cell["cell"].(map[string]any)
	for _, key := range []string{"experiment", "kind", "variant", "op", "ops", "seed"} {
		if _, ok := inner[key]; !ok {
			t.Errorf("cell spec JSON key %q missing", key)
		}
	}

	var out experiment.GateReport
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatalf("unmarshal into GateReport: %v", err)
	}
	if out.Tool != in.Tool || out.Gate != in.Gate || out.Cells[0].Value != in.Cells[0].Value {
		t.Errorf("round trip changed the document")
	}
}

// TestMetricsCells: -metrics puts a snapshot on every cell whose queue can
// carry one, and only on those.
func TestMetricsCells(t *testing.T) {
	dir := t.TempDir()
	expgrid(t, 0, "-experiments", "fig5c", "-scale", "smoke", "-threads", "1", "-metrics", "-out", dir)
	for _, c := range readGrid(t, dir).Cells {
		zmsq := strings.HasPrefix(c.Cell.Variant, "zmsq")
		switch {
		case zmsq && (c.Metrics == nil || !c.Metrics.Enabled):
			t.Errorf("cell %s carries no metrics snapshot", c.Cell.Variant)
		case !zmsq && c.Metrics != nil:
			t.Errorf("baseline cell %s carries a metrics snapshot", c.Cell.Variant)
		}
		if c.Cell.Threads != 1 {
			t.Errorf("cell %s ran at %d threads, want -threads 1", c.Cell.Variant, c.Cell.Threads)
		}
	}
}

// TestUsageErrors: a request that does not resolve exits 2 before any
// cell runs and writes nothing.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-experiments", "fig5c,typo"},
		{"-experiments", "fig5c", "-scale", "galactic"},
		{"-experiments", "fig5c", "-keys", "zipf"},
		{"-experiments", "fig5c", "-threads", "1,x"},
		{"-gates", "nope"},
		{"-spec", "/does/not/exist.json"},
		{"-nosuchflag"},
	} {
		dir := t.TempDir()
		stdout, stderr := expgrid(t, 2, append(args, "-out", dir)...)
		if strings.Contains(stdout, "Mops/s") {
			t.Errorf("%v: cells ran before the usage error:\n%s", args, stdout)
		}
		if stderr == "" {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%v: wrote %d files despite the usage error", args, len(left))
		}
	}
}

// TestFailingGate: a red gate exits 1 and prints the command that reruns
// it, overrides included.
func TestFailingGate(t *testing.T) {
	specPath := writeSpec(t, `{"scales": {"smoke": {"ops": 100}},
		"experiments": [{"name": "tp", "kind": "throughput", "mix": 50, "threads": [1],
			"variants": [{"name": "zmsq", "queue": "zmsq"}]}],
		"gates": [{"name": "tight", "kind": "max", "experiment": "tp", "threshold": 0.5}]}`)
	_, stderr := expgrid(t, 1, "-spec", specPath, "-scale", "smoke", "-ops", "200", "-out", "")
	for _, want := range []string{"gate tight", "FAIL",
		"reproduce with: go run ./cmd/expgrid -gates tight -scale smoke -seed 1", "-ops=200", "-spec=" + specPath} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestFailureNamesErroredCells: behind a red gate, every cell of its
// experiment with a non-empty Error is printed — and no other cell.
func TestFailureNamesErroredCells(t *testing.T) {
	cell := func(ex, variant, crash string, seed uint64, errText string) experiment.CellResult {
		return experiment.CellResult{
			Cell:  experiment.Cell{Experiment: ex, Kind: "recovery", Variant: variant, CrashKind: crash, Seed: seed},
			Error: errText,
		}
	}
	grid := &experiment.GridResult{Scale: "small", Seed: 7, Cells: []experiment.CellResult{
		cell("recovery", "single", "mid-fsync", 7, ""),
		cell("recovery", "sharded4", "torn-tail", 8, "lost 3 acked keys"),
		cell("recovery", "snapshot-write-amp", "", 7, "no write-amplification win"),
		cell("other", "x", "", 7, "not this gate's"),
	}}
	g := experiment.GateSpec{Name: "recovery", Kind: "pass", Experiment: "recovery"}
	var buf bytes.Buffer
	reportFailure(&buf, g, experiment.GateResult{Name: "recovery", Detail: "1/3 scenarios conserved"}, grid, " -repeats=2")
	got := buf.String()
	for _, want := range []string{
		"FAIL — 1/3 scenarios conserved",
		"cell sharded4/torn-tail seed=8: lost 3 acked keys",
		"cell snapshot-write-amp seed=7: no write-amplification win",
		"reproduce with: go run ./cmd/expgrid -gates recovery -scale small -seed 7 -repeats=2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("failure report lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "mid-fsync") || strings.Contains(got, "not this gate's") {
		t.Errorf("failure report names a healthy or foreign cell:\n%s", got)
	}
}

// TestChaosGateFailsOnLostElement: a chaos cell over a queue that loses
// an element fails its pass gate with exit 1, and stderr names the cell
// and its seed and prints the seeded command that reruns the gate. The
// zmsq cells beside it hold every contract.
func TestChaosGateFailsOnLostElement(t *testing.T) {
	specPath := writeSpec(t, `{"scales": {"small": {}},
		"experiments": [{"name": "c", "kind": "chaos", "shards": 2, "ops": 200, "repeats": 2,
			"ratios": [[2, 2]], "config": {"batch": 8, "target_len": 8, "lock": "tatas"},
			"variants": [{"name": "zmsq", "queue": "zmsq"}, {"name": "dropping", "queue": "dropping"}]}],
		"gates": [{"name": "c", "kind": "pass", "experiment": "c"}]}`)
	stdout, stderr := expgrid(t, 1, "-spec", specPath, "-seed", "5", "-out", "")
	for _, want := range []string{"gate c", "FAIL — 4/6 scenarios conserved",
		"cell dropping seed=5: contract:", "never inserted", "cell dropping seed=6:",
		"reproduce with: go run ./cmd/expgrid -gates c -scale small -seed 5", "-spec=" + specPath} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "cell zmsq") || strings.Contains(stderr, "cell sharded") {
		t.Errorf("a zmsq cell failed:\n%s", stderr)
	}
	for _, want := range []string{"zmsq(leak)", "sharded(2)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks a %s row:\n%s", want, stdout)
		}
	}
}

// TestSSSPLostTaskFails: an sssp cell whose queue loses a task, so that
// the task stays pending forever, fails the run within seconds, naming
// the variant, instead of hanging.
func TestSSSPLostTaskFails(t *testing.T) {
	specPath := writeSpec(t, `{"scales": {"smoke": {"graph_nodes": 512}},
		"experiments": [{"name": "s", "kind": "sssp", "graph": "politician", "threads": [2],
			"variants": [{"name": "heap", "queue": "globalheap"}, {"name": "losing", "queue": "losing"}]}]}`)
	start := time.Now()
	_, stderr := expgrid(t, 1, "-spec", specPath, "-experiments", "s", "-scale", "smoke", "-out", "")
	if !strings.Contains(stderr, "losing at 2 threads on politician: sssp: queue reports empty with tasks pending") {
		t.Errorf("stderr does not name the stalled cell:\n%s", stderr)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("the stalled cell failed after %v", d)
	}
}

// TestSSSPWrongDistancesFail: an sssp cell whose queue loses a task
// computes wrong distances, and the run exits 1 naming the variant.
func TestSSSPWrongDistancesFail(t *testing.T) {
	specPath := writeSpec(t, `{"scales": {"smoke": {"graph_nodes": 512}},
		"experiments": [{"name": "s", "kind": "sssp", "graph": "politician", "threads": [1],
			"variants": [{"name": "heap", "queue": "globalheap"}, {"name": "dropping", "queue": "dropping"}]}]}`)
	_, stderr := expgrid(t, 1, "-spec", specPath, "-experiments", "s", "-scale", "smoke", "-out", "")
	if !strings.Contains(stderr, "dropping at 1 threads on politician: dist[") {
		t.Errorf("stderr does not name the wrong cell:\n%s", stderr)
	}
}
