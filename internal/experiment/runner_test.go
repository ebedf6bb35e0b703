package experiment

import (
	"testing"

	"repro/internal/pq"
)

func tinySpec() *Spec {
	return &Spec{
		Scales: map[string]Scale{
			"small": {Ops: 400, Handoffs: 200, Repeats: 2, Trials: 1, AllocRuns: 200, RecoverySeeds: 1},
		},
		Experiments: []Experiment{
			{
				Name: "tp", Kind: "throughput", Mix: 50, Prefill: true, Threads: []int{1},
				Variants: []Variant{{Name: "zmsq", Queue: "zmsq"}, {Name: "fifo", Queue: "fifo"}},
			},
			{
				Name: "pair", Kind: "paired", Mix: 50, Threads: []int{1},
				Variants: []Variant{{Name: "base", Queue: "zmsq"}, {Name: "test", Queue: "zmsq", Config: &QueueConfig{Metrics: true}}},
			},
			{
				Name: "acc", Kind: "accuracy",
				Sizes:    []AccuracySize{{QueueSize: 128, Extracts: []int{16}}},
				Variants: []Variant{{Name: "zmsq", Queue: "zmsq", Config: &QueueConfig{Batch: 4}, Threads: 1}},
			},
			{
				Name: "hand", Kind: "handoff", Ratios: [][2]int{{1, 1}},
				Variants: []Variant{
					{Name: "block", Queue: "zmsq", Blocking: true},
					{Name: "mound", Queue: "mound"},
				},
			},
			{
				Name: "sets", Kind: "setstats", Keys: "normal20",
				Variants: []Variant{
					{Name: "plain", Queue: "zmsq", Config: &QueueConfig{Batch: 4, TargetLen: 4}},
					{Name: "helper", Queue: "zmsq", Config: &QueueConfig{Batch: 4, TargetLen: 4, Helper: true}},
				},
			},
		},
	}
}

// TestRunExpansion runs the five workload kinds at trivially small sizes
// against the real harness and pins the grid's expansion arithmetic and
// canonical schema.
func TestRunExpansion(t *testing.T) {
	spec := tinySpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Run(nil, Options{Scale: "small", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGrid(grid); err != nil {
		t.Fatalf("canonical schema: %v", err)
	}
	if grid.Seed != 3 || grid.Scale != "small" {
		t.Errorf("grid header %q/%d", grid.Scale, grid.Seed)
	}

	count := map[string]int{}
	for _, c := range grid.Cells {
		count[c.Cell.Experiment]++
	}
	// tp: 1 thread × 2 variants; pair: 2 sides; acc: 1×1×1; hand: 1 ratio × 2;
	// sets: 2 variants.
	for name, want := range map[string]int{"tp": 2, "pair": 2, "acc": 1, "hand": 2, "sets": 2} {
		if count[name] != want {
			t.Errorf("experiment %s expanded to %d cells, want %d", name, count[name], want)
		}
	}

	for _, c := range grid.Cells {
		switch c.Cell.Experiment {
		case "tp":
			if len(c.Samples) != 2 || c.Statistic != "best" || c.Unit != "ops/s" {
				t.Errorf("tp cell %+v: want 2 best-of samples of ops/s", c)
			}
			if c.Value <= 0 || c.Cell.Prefill != 400 {
				t.Errorf("tp cell value/prefill = %v/%d", c.Value, c.Cell.Prefill)
			}
			best := 0.0
			for _, s := range c.Samples {
				if s > best {
					best = s
				}
			}
			if c.Value != best {
				t.Errorf("tp cell value %v != max sample %v", c.Value, best)
			}
		case "pair":
			if len(c.Samples) != 2 || c.Value <= 0 {
				t.Errorf("paired cell %+v: want one sample per round", c)
			}
			// Only the side whose queue had metrics on carries a snapshot.
			if has := c.Metrics != nil && c.Metrics.Enabled; has != (c.Cell.Variant == "test") {
				t.Errorf("paired cell %s: metrics snapshot present = %v", c.Cell.Variant, has)
			}
		case "acc":
			if c.Unit != "hit_pct" || c.Value < 0 || c.Value > 100 {
				t.Errorf("accuracy cell %+v", c)
			}
			// One pass measures both: batch=4 must show some rank error,
			// bounded by the queue size.
			if m, w := c.Extra["rank_err_mean"], c.Extra["rank_err_max"]; m <= 0 || w < m || w >= 128 || c.Extra["rank_err_p99"] > w {
				t.Errorf("accuracy cell rank error extras %v", c.Extra)
			}
		case "sets":
			// targetLen 4: sets hold at most 8.
			if c.Unit != "set_size" || c.Value <= 0 || c.Extra["max"] > 8 || c.Extra["leaf_level"] < 1 {
				t.Errorf("setstats cell %+v", c)
			}
			if c.Cell.Prefill != 200 || c.Cell.Ops != 1600 {
				t.Errorf("setstats cell sized %d+%d, want ops/2 prefill and 4×ops pairs of 400", c.Cell.Prefill, c.Cell.Ops)
			}
			if c.Cell.Variant == "plain" && c.Extra["helper_moves"] != 0 {
				t.Errorf("helper moves without a helper: %v", c.Extra)
			}
		case "hand":
			if c.Unit != "ns/handoff" || c.Value <= 0 {
				t.Errorf("handoff cell %+v", c)
			}
			if _, ok := c.Extra["cpu_sec"]; !ok {
				t.Errorf("handoff cell lacks cpu_sec extra: %+v", c.Extra)
			}
		}
	}

	// Unknown names fail loudly — and before the first cell runs, also
	// when a good name precedes the typo: the grid is nil, no queue was
	// built and nothing reported progress.
	ran := 0
	watch := Options{
		Scale:    "small",
		OnQueue:  func(pq.Queue) { ran++ },
		Progress: func(string, ...any) { ran++ },
	}
	for _, names := range [][]string{{"nope"}, {"tp", "nope"}} {
		if grid, err := spec.Run(names, watch); err == nil || grid != nil {
			t.Errorf("Run(%v) = %v, %v; want a nil grid and an unknown-experiment error", names, grid, err)
		}
	}
	watch.Scale = "galactic"
	if grid, err := spec.Run(nil, watch); err == nil || grid != nil {
		t.Error("unknown scale should error with a nil grid")
	}
	watch.Scale, watch.Keys = "small", "zipf"
	if grid, err := spec.Run([]string{"tp"}, watch); err == nil || grid != nil {
		t.Error("unknown key override should error with a nil grid")
	}
	if ran != 0 {
		t.Errorf("%d queues/progress lines before a request that did not resolve", ran)
	}
	// The same observers do fire on a request that resolves.
	watch.Keys = ""
	if _, err := spec.Run([]string{"tp", "pair"}, watch); err != nil || ran == 0 {
		t.Errorf("resolved request: err %v, %d observations", err, ran)
	}
}

// TestValidateGridRejects pins the schema checks the smoke tests rely on.
func TestValidateGridRejects(t *testing.T) {
	good := testGrid(1, tcell("e", "v", 10))
	if err := ValidateGrid(good); err != nil {
		t.Fatalf("good grid rejected: %v", err)
	}
	cases := []struct {
		name string
		warp func(*GridResult)
	}{
		{"no cells", func(g *GridResult) { g.Cells = nil }},
		{"no env", func(g *GridResult) { g.Env = Environment{} }},
		{"bad unit", func(g *GridResult) { g.Cells[0].Unit = "furlongs" }},
		{"bad statistic", func(g *GridResult) { g.Cells[0].Statistic = "vibes" }},
		{"no samples", func(g *GridResult) { g.Cells[0].Samples = nil }},
		{"no variant", func(g *GridResult) { g.Cells[0].Cell.Variant = "" }},
	}
	for _, tc := range cases {
		g := testGrid(1, tcell("e", "v", 10))
		tc.warp(g)
		if err := ValidateGrid(g); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}
