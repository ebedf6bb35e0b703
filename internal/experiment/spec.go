// Package experiment turns the repository's evaluation into data: a grid
// spec (experiments.json) names every experiment — kind, variants, thread
// counts, key distributions, set modes, shard counts, repeats — and one
// runner expands the grid into cells, executes each cell through the
// existing harness entry points (RunThroughput / RunAccuracy / RunHandoff
// / RunRecovery plus the alloc and set-size probes), and emits one
// canonical result schema: cell spec + samples + chosen statistic +
// environment block.
//
// On top of the runner sit two layers:
//
//   - Gates (gate.go): each CI gate — alloc ceiling, metrics overhead,
//     sharded speedup, recovery conservation — is a declarative threshold
//     over named grid cells, evaluated by one shared GateSpec.Eval. The
//     thresholds live in the spec, not in any cmd/ main.
//   - Trajectory (trajectory.go): every gated run can append its gate
//     metrics to results/BENCH_trajectory.json, one entry per PR keyed by
//     git SHA, and compare against the previous entry so cross-PR
//     regressions are visible (and optionally fatal) at a glance.
//
// cmd/expgrid is the one front-end over this package: flag parsing, spec
// lookup, row printing.
package experiment

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/harness"
)

//go:embed experiments.json
var embeddedSpec []byte

// Spec is the whole experiment grid: scales, experiments, and gates.
type Spec struct {
	Scales      map[string]Scale `json:"scales"`
	Experiments []Experiment     `json:"experiments"`
	Gates       []GateSpec       `json:"gates"`
}

// Scale is one size tier of the grid. Experiments read the knobs that
// apply to their kind; zero values fall back to built-in minima.
type Scale struct {
	// Ops is the operation count per throughput cell.
	Ops int `json:"ops"`
	// Handoffs is the item count per handoff (producer/consumer) cell.
	Handoffs int `json:"handoffs"`
	// Repeats is the sample count per throughput cell and the paired
	// round count for paired experiments; the chosen statistic is best-of.
	Repeats int `json:"repeats"`
	// Trials is the averaging count for accuracy cells.
	Trials int `json:"trials"`
	// AllocRuns is the measured operation count per alloc cell.
	AllocRuns int `json:"alloc_runs"`
	// RecoverySeeds is the seed count per (crash kind, shape) pair.
	RecoverySeeds int `json:"recovery_seeds"`
}

// Experiment is one named grid axis product. Kind selects the harness
// entry point; the other fields parameterize it (unused fields are
// ignored by kinds that do not read them).
type Experiment struct {
	Name string `json:"name"`
	// Kind is one of "throughput", "paired", "accuracy", "handoff",
	// "alloc", "recovery", "service", "setstats".
	Kind string `json:"kind"`
	// Paper marks experiments belonging to the paper-reproduction grid
	// (expgrid -experiments paper) behind EXPERIMENTS.md's tables and
	// figures.
	Paper bool `json:"paper,omitempty"`
	// Mix is the insert percentage (throughput/paired kinds).
	Mix int `json:"mix,omitempty"`
	// Keys names the key distribution: uniform20 (default), uniform7,
	// normal20, uniform64.
	Keys string `json:"keys,omitempty"`
	// Prefill, when true, prefills Ops elements before timing starts.
	Prefill bool `json:"prefill,omitempty"`
	// Threads lists worker counts; empty means the default sweep
	// (1,2,4,... capped at 16); a 0 entry means min(GOMAXPROCS, 8).
	Threads []int `json:"threads,omitempty"`
	// BatchSizes drives the workload through the batch API in groups of
	// this many elements per call (throughput kind); empty or {0} means
	// the per-operation loop.
	BatchSizes []int `json:"batch_sizes,omitempty"`
	// Sizes lists the accuracy-table (queue size, extract counts) pairs.
	Sizes []AccuracySize `json:"sizes,omitempty"`
	// Ratios lists handoff (producers, consumers) pairs.
	Ratios [][2]int `json:"ratios,omitempty"`
	// Ops overrides the scale's operation count for this experiment.
	Ops int `json:"ops,omitempty"`
	// QPS lists the offered-load sweep of a service-kind experiment
	// (requests/second per cell); empty means one 20 000 QPS point.
	QPS []int `json:"qps,omitempty"`
	// Clients is the service kind's concurrent connection count (0 = 4).
	Clients int `json:"clients,omitempty"`
	// TenantCount is the service kind's tenant count (0 = 2).
	TenantCount int `json:"tenants,omitempty"`
	// Repeats overrides the scale's sample/round count for this
	// experiment (gate experiments pin it so verdict fidelity does not
	// change with -scale).
	Repeats int `json:"repeats,omitempty"`
	// AllocOps lists the alloc-kind probes: "insert+extract", "batch64".
	AllocOps []string `json:"alloc_ops,omitempty"`
	// Shards is the sharded shape the recovery kind sweeps next to the
	// single-queue shape.
	Shards int `json:"shards,omitempty"`
	// ValueSizes are the per-insert payload sizes (bytes) the recovery
	// kind sweeps; 0 is the key-only v1 protocol. Empty means {0}.
	ValueSizes []int `json:"value_sizes,omitempty"`
	// Config is the experiment-wide queue configuration (recovery kind).
	Config *QueueConfig `json:"config,omitempty"`
	// Variants are the grid cells' queue constructors.
	Variants []Variant `json:"variants,omitempty"`
}

// AccuracySize is one accuracy-table prefill size with its extract counts.
type AccuracySize struct {
	QueueSize int   `json:"queue_size"`
	Extracts  []int `json:"extracts"`
}

// Variant is one labeled queue constructor in an experiment.
type Variant struct {
	Name string `json:"name"`
	// Queue selects the substrate: "zmsq" (a core.Config built from
	// Config/Dynamic), "sharded" (the sharded front-end over a zmsq
	// template), or any harness registry key (mound, spraylist, fifo, ...).
	Queue string `json:"queue"`
	// Config tunes the zmsq/sharded template; nil means DefaultConfig.
	Config *QueueConfig `json:"config,omitempty"`
	// Dynamic scales Batch/TargetLen with the cell's thread count
	// (Figure 3's dynamic(i:j) configurations).
	Dynamic *Dynamic `json:"dynamic,omitempty"`
	// Shards is the sharded front-end's shard count; 0 selects
	// min(GOMAXPROCS, 8).
	Shards int `json:"shards,omitempty"`
	// Threads pins the relaxation parallelism for accuracy cells
	// (SprayList tunes to it); 0 means 1.
	Threads int `json:"threads,omitempty"`
	// Blocking selects the futex-ring mode for zmsq handoff cells.
	Blocking bool `json:"blocking,omitempty"`
}

// Dynamic are per-thread multipliers for Batch and TargetLen.
type Dynamic struct {
	Batch  float64 `json:"batch"`
	Target float64 `json:"target"`
}

// QueueConfig is the data form of core.Config's experiment-relevant
// fields. Zero values keep DefaultConfig's choice.
type QueueConfig struct {
	Batch     int    `json:"batch,omitempty"`
	TargetLen int    `json:"target_len,omitempty"`
	Lock      string `json:"lock,omitempty"` // "std", "tas", "tatas"
	NoTryLock bool   `json:"no_trylock,omitempty"`
	SetMode   string `json:"set_mode,omitempty"` // "list", "array"
	Leaky     bool   `json:"leaky,omitempty"`
	Blocking  bool   `json:"blocking,omitempty"`
	Metrics   bool   `json:"metrics,omitempty"`
	Helper    bool   `json:"helper,omitempty"` // the §5 maintenance goroutine
}

// GateSpec is one declarative CI gate: a threshold over named grid cells.
type GateSpec struct {
	Name string `json:"name"`
	// Kind is one of:
	//   "overhead": 100*(best(Base)-best(Test))/best(Base) <= Threshold
	//   "speedup":  best(Test)/best(Base) >= Threshold (skipped below MinCores)
	//   "max":      max cell value (over Variants, if set) <= Threshold
	//   "pass":     every cell must pass (recovery conservation)
	//   "latency":  worst cell p99 (ms, over Variants if set) <= Threshold,
	//               zero errored cells (skipped below MinCores)
	Kind       string `json:"kind"`
	Experiment string `json:"experiment"`
	// Base and Test name the two variants of a paired experiment.
	Base string `json:"base,omitempty"`
	Test string `json:"test,omitempty"`
	// Threshold is the gate's pass bound (direction depends on Kind).
	Threshold float64 `json:"threshold,omitempty"`
	// MinCores skips the verdict on machines with fewer cores (the
	// sharded speedup means nothing on a 2-core runner).
	MinCores int `json:"min_cores,omitempty"`
	// Variants filters which cells a "max" gate judges.
	Variants []string `json:"variants,omitempty"`
	// RegressPct and RegressAbs bound how much the gate metric may worsen
	// versus the previous trajectory entry before the comparison fails;
	// both zero disables the regression check for this gate.
	RegressPct float64 `json:"regress_pct,omitempty"`
	RegressAbs float64 `json:"regress_abs,omitempty"`
	// Out names the gate's JSON report file under the results directory.
	Out string `json:"out,omitempty"`
}

var kinds = map[string]bool{
	"throughput": true, "paired": true, "accuracy": true,
	"handoff": true, "alloc": true, "recovery": true, "service": true,
	"setstats": true,
}

// LoadSpec reads a grid spec from path, or the embedded default grid when
// path is empty, and validates it.
func LoadSpec(path string) (*Spec, error) {
	raw := embeddedSpec
	if path != "" {
		var err error
		raw, err = os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("experiment: reading spec: %w", err)
		}
	}
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("experiment: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks cross-references and enumerated fields so a malformed
// grid fails at load time with a named culprit, not mid-run.
func (s *Spec) Validate() error {
	if len(s.Scales) == 0 {
		return fmt.Errorf("experiment: spec has no scales")
	}
	seen := map[string]bool{}
	for i := range s.Experiments {
		ex := &s.Experiments[i]
		if ex.Name == "" {
			return fmt.Errorf("experiment: experiments[%d] has no name", i)
		}
		if seen[ex.Name] {
			return fmt.Errorf("experiment: duplicate experiment %q", ex.Name)
		}
		seen[ex.Name] = true
		if !kinds[ex.Kind] {
			return fmt.Errorf("experiment %q: unknown kind %q", ex.Name, ex.Kind)
		}
		if _, err := parseKeys(ex.Keys); err != nil {
			return fmt.Errorf("experiment %q: %w", ex.Name, err)
		}
		if ex.Kind == "paired" && len(ex.Variants) != 2 {
			return fmt.Errorf("experiment %q: paired kind needs exactly 2 variants, has %d", ex.Name, len(ex.Variants))
		}
		if ex.Kind != "recovery" && len(ex.Variants) == 0 {
			return fmt.Errorf("experiment %q: no variants", ex.Name)
		}
		vseen := map[string]bool{}
		for _, v := range ex.Variants {
			if v.Name == "" {
				return fmt.Errorf("experiment %q: variant with no name", ex.Name)
			}
			if vseen[v.Name] {
				return fmt.Errorf("experiment %q: duplicate variant %q", ex.Name, v.Name)
			}
			vseen[v.Name] = true
			if _, err := v.maker(Options{}); err != nil {
				return fmt.Errorf("experiment %q variant %q: %w", ex.Name, v.Name, err)
			}
			if ex.Kind == "setstats" && v.Queue != "zmsq" && v.Queue != "" {
				return fmt.Errorf("experiment %q variant %q: setstats kind reads a ZMSQ's tree, queue is %q", ex.Name, v.Name, v.Queue)
			}
		}
	}
	gseen := map[string]bool{}
	for _, g := range s.Gates {
		if g.Name == "" {
			return fmt.Errorf("experiment: gate with no name")
		}
		if gseen[g.Name] {
			return fmt.Errorf("experiment: duplicate gate %q", g.Name)
		}
		gseen[g.Name] = true
		ex := s.Experiment(g.Experiment)
		if ex == nil {
			return fmt.Errorf("gate %q: unknown experiment %q", g.Name, g.Experiment)
		}
		switch g.Kind {
		case "overhead", "speedup":
			if ex.variant(g.Base) == nil || ex.variant(g.Test) == nil {
				return fmt.Errorf("gate %q: base %q / test %q must name variants of %q",
					g.Name, g.Base, g.Test, g.Experiment)
			}
		case "max", "latency":
			for _, name := range g.Variants {
				if ex.variant(name) == nil {
					return fmt.Errorf("gate %q: filter names unknown variant %q", g.Name, name)
				}
			}
		case "pass":
		default:
			return fmt.Errorf("gate %q: unknown kind %q", g.Name, g.Kind)
		}
		if strings.ContainsAny(g.Out, "/\\") {
			return fmt.Errorf("gate %q: out %q must be a bare filename", g.Name, g.Out)
		}
	}
	return nil
}

// Experiment returns the named experiment, or nil.
func (s *Spec) Experiment(name string) *Experiment {
	for i := range s.Experiments {
		if s.Experiments[i].Name == name {
			return &s.Experiments[i]
		}
	}
	return nil
}

// Gate returns the named gate spec, or nil.
func (s *Spec) Gate(name string) *GateSpec {
	for i := range s.Gates {
		if s.Gates[i].Name == name {
			return &s.Gates[i]
		}
	}
	return nil
}

// PaperExperiments returns the names of the paper-reproduction grid, in
// spec order.
func (s *Spec) PaperExperiments() []string {
	var names []string
	for _, ex := range s.Experiments {
		if ex.Paper {
			names = append(names, ex.Name)
		}
	}
	return names
}

func (ex *Experiment) variant(name string) *Variant {
	for i := range ex.Variants {
		if ex.Variants[i].Name == name {
			return &ex.Variants[i]
		}
	}
	return nil
}

func parseKeys(name string) (harness.KeyDist, error) {
	switch name {
	case "", "uniform20":
		return harness.Uniform20, nil
	case "uniform7":
		return harness.Uniform7, nil
	case "normal20":
		return harness.Normal20, nil
	case "uniform64":
		return harness.Uniform64, nil
	}
	return 0, fmt.Errorf("unknown key distribution %q", name)
}

// autoThreads is the thread/shard count a 0 entry selects: enough workers
// to exercise parallel structure, capped where the sharded window's cost
// outgrows its win.
func autoThreads() int {
	t := runtime.GOMAXPROCS(0)
	if t > 8 {
		t = 8
	}
	if t < 1 {
		t = 1
	}
	return t
}

// defaultSweep is the thread sweep used when an experiment lists none:
// 1, 2, 4, ... up to twice GOMAXPROCS, capped at 16.
func defaultSweep() []int {
	maxT := runtime.GOMAXPROCS(0)
	sweep := []int{1}
	for t := 2; t <= maxT*2 && t <= 16; t *= 2 {
		sweep = append(sweep, t)
	}
	return sweep
}
