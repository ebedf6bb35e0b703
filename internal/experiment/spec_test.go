package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEmbeddedSpecValid: the default grid must always load — every cmd
// front-end depends on it.
func TestEmbeddedSpecValid(t *testing.T) {
	spec, err := LoadSpec("")
	if err != nil {
		t.Fatalf("embedded spec invalid: %v", err)
	}
	for _, scale := range []string{"smoke", "small", "full"} {
		if _, ok := spec.Scales[scale]; !ok {
			t.Errorf("embedded spec lacks scale %q", scale)
		}
	}
	for _, name := range []string{"table1", "sec32", "fig2a", "fig2b", "fig3a", "fig3b", "fig4",
		"fig5a", "fig5b", "fig5c", "fig6", "batch", "sharded-sweep",
		"metrics-overhead", "sharded-speedup", "alloc", "recovery"} {
		if spec.Experiment(name) == nil {
			t.Errorf("embedded spec lacks experiment %q", name)
		}
	}
	for _, name := range []string{"alloc", "metrics-overhead", "sharded-speedup", "recovery"} {
		g := spec.Gate(name)
		if g == nil {
			t.Errorf("embedded spec lacks gate %q", name)
			continue
		}
		if g.Out == "" || !strings.HasPrefix(g.Out, "BENCH_") {
			t.Errorf("gate %q: out %q, want a BENCH_*.json filename", name, g.Out)
		}
	}
	paper := spec.PaperExperiments()
	if len(paper) < 10 {
		t.Errorf("paper grid has only %d experiments: %v", len(paper), paper)
	}
	for _, name := range paper {
		if strings.HasSuffix(name, "overhead") || strings.HasSuffix(name, "speedup") {
			t.Errorf("gate experiment %q flagged as paper", name)
		}
	}
}

// TestValidateRejects pins the load-time diagnostics for the common ways
// a hand-edited spec goes wrong.
func TestValidateRejects(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Scales: map[string]Scale{"small": {Ops: 10}},
			Experiments: []Experiment{
				{Name: "a", Kind: "throughput", Variants: []Variant{{Name: "v", Queue: "zmsq"}}},
				{Name: "p", Kind: "paired", Variants: []Variant{{Name: "x", Queue: "zmsq"}, {Name: "y", Queue: "zmsq"}}},
			},
		}
	}
	cases := []struct {
		name string
		warp func(*Spec)
		want string
	}{
		{"unknown kind", func(s *Spec) { s.Experiments[0].Kind = "nope" }, "unknown kind"},
		{"dup experiment", func(s *Spec) { s.Experiments[1].Name = "a" }, "duplicate experiment"},
		{"paired needs 2", func(s *Spec) { s.Experiments[1].Variants = s.Experiments[1].Variants[:1] }, "exactly 2 variants"},
		{"unknown queue", func(s *Spec) { s.Experiments[0].Variants[0].Queue = "bogus" }, "neither zmsq"},
		{"bad keys", func(s *Spec) { s.Experiments[0].Keys = "zipf" }, "key distribution"},
		{"setstats on a baseline", func(s *Spec) {
			s.Experiments[0].Kind, s.Experiments[0].Variants[0].Queue = "setstats", "mound"
		}, "reads a ZMSQ's tree"},
		{"blocking outside handoff", func(s *Spec) {
			s.Experiments[0].Variants[0].Config = &QueueConfig{Blocking: true}
		}, "handoff cells only"},
		{"blocking sharded", func(s *Spec) {
			s.Experiments[0].Kind = "handoff"
			s.Experiments[0].Variants[0] = Variant{Name: "v", Queue: "sharded", Config: &QueueConfig{Blocking: true}}
		}, "zmsq cells only"},
		{"helper outside setstats", func(s *Spec) {
			s.Experiments[0].Variants[0].Config = &QueueConfig{Helper: true}
		}, "setstats cells only"},
		{"helper sharded", func(s *Spec) {
			s.Experiments[0].Variants[0] = Variant{Name: "v", Queue: "sharded", Config: &QueueConfig{Helper: true}}
		}, "setstats cells only"},
		{"bad lock", func(s *Spec) {
			s.Experiments[0].Variants[0].Config = &QueueConfig{Lock: "spin"}
		}, "unknown lock"},
		{"gate unknown experiment", func(s *Spec) {
			s.Gates = []GateSpec{{Name: "g", Kind: "pass", Experiment: "missing"}}
		}, "unknown experiment"},
		{"gate unknown variant", func(s *Spec) {
			s.Gates = []GateSpec{{Name: "g", Kind: "overhead", Experiment: "p", Base: "x", Test: "zzz"}}
		}, "must name variants"},
		{"gate out with path", func(s *Spec) {
			s.Gates = []GateSpec{{Name: "g", Kind: "pass", Experiment: "a", Out: "results/x.json"}}
		}, "bare filename"},
	}
	for _, tc := range cases {
		s := base()
		tc.warp(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec should validate: %v", err)
	}

	// More ways, which only decoding can catch: a spec written for a schema
	// field that no longer exists.
	for field, variant := range map[string]string{
		"policy":   `{"name": "v", "queue": "sharded", "policy": "v2"}`,
		"blocking": `{"name": "v", "queue": "zmsq", "blocking": true}`,
	} {
		stale := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(stale, []byte(`{"scales": {"small": {"ops": 10}}, "experiments": [{"name": "a",
		"kind": "handoff", "variants": [`+variant+`]}]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSpec(stale); err == nil || !strings.Contains(err.Error(), `unknown field "`+field+`"`) {
			t.Errorf("removed variant field %q: err = %v, want an unknown-field error", field, err)
		}
	}
}

// TestThreadsFor: 0 entries mean auto, overrides win, empty means sweep.
func TestThreadsFor(t *testing.T) {
	ex := &Experiment{Threads: []int{0, 2}}
	got := threadsFor(ex, Options{})
	if len(got) != 2 || got[0] < 1 || got[1] != 2 {
		t.Errorf("threadsFor auto = %v", got)
	}
	got = threadsFor(ex, Options{Threads: []int{3}})
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("threadsFor override = %v, want [3]", got)
	}
	if got := threadsFor(&Experiment{}, Options{}); len(got) == 0 || got[0] != 1 {
		t.Errorf("threadsFor default sweep = %v, want to start at 1", got)
	}
}
