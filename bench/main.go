// Command bench is the repository's benchmark: four workloads over the
// ZMSQ stack, each reporting the same end-to-end metrics with its outputs
// checked, and a traced mode that reports per-layer metrics. See
// README.md in this directory for what every number means.
//
//	bash bench/run.sh                                   # the whole suite
//	bash bench/run.sh -workload lib-steady -seed 7      # one workload
//	bash bench/run.sh -workload svc-pipe -trace 1       # its per-layer run
//	bash bench/run.sh -aa 10                            # A/A noise table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiment"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the last line a single-workload run prints, in the shape the
// driver reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(ms []metric, attempted, failed int64) report {
	r := report{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[m.name] = metricValue{v, m.unit}
	}
	return r
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	scale   string
	sz      sizes
	outDir  string    // trace files
	walBase string    // parent of the durable instances' log directories
	log     io.Writer // human-readable progress and tables
}

// workload is one named set of inputs.
type workload struct {
	name string
	// why is the reason the workload exists, as BENCHMARK.json states it.
	why      string
	roundOps func(sizes) int64
	setup    func(c *runConfig, inst int) (instance, error)
	rank     func(c *runConfig) (rankResult, error)
}

var workloads = []workload{
	{
		name:     "lib-steady",
		why:      "50/50 insert/extract on the sharded queue at a resident set of 65536, past the mix's transient: core and sharded only",
		roundOps: func(s sizes) int64 { return s.steadyRound },
		setup:    newSteady,
		rank: func(c *runConfig) (r rankResult, _ error) {
			singleProc(func() {
				q := newSteadyQueue()
				defer q.Close()
				r = mixRank(q, c.seed, c.sz.live, c.sz.qualityWarm, c.sz.qualityOps)
			})
			return r, nil
		},
	},
	{
		name:     "lib-fill-drain",
		why:      "fill a fresh single ZMSQ with 262144 keys then drain it: tree growth, splits, refills and retirement, bypassing sharded",
		roundOps: func(s sizes) int64 { return 2 * s.fillKeys },
		setup:    newFillDrain,
		rank: func(c *runConfig) (r rankResult, _ error) {
			singleProc(func() { r = fillDrainRank(c.seed, int(c.sz.fillKeys)) })
			return r, nil
		},
	},
	{
		name:     "lib-durable",
		why:      "groups of four 64-element valued batches, each group acknowledged by SyncWAL, log on a tmpfs; then crash recovery checked byte for byte: wal append, group commit, snapshots dominate",
		roundOps: func(s sizes) int64 { return s.durRound },
		setup:    newDurable,
		rank: func(c *runConfig) (r rankResult, _ error) {
			singleProc(func() { r = batchRank(c.seed, c.sz.live, c.sz.qualityWarm, c.sz.qualityOps) })
			return r, nil
		},
	},
	{
		name:     "svc-pipe",
		why:      "closed loop over loopback TCP, one connection per CPU, window 16, 64-byte values: framing, connection loop and coalescer dominate",
		roundOps: func(s sizes) int64 { return s.svcRound },
		setup:    newService,
		rank: func(c *runConfig) (r rankResult, err error) {
			singleProc(func() { r, err = svcRank(c.seed, c.sz.live, c.sz.qualityWarm, c.sz.qualityOps) })
			return r, err
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runEndToEnd sets the workload up sz.instances times, times fixed-size
// rounds on each for its share of c.seconds, and reports medians.
func runEndToEnd(c *runConfig, w *workload) (report, error) {
	var (
		setups            []float64
		rounds            []roundStat
		drifts            []float64
		attempted, failed int64
	)
	share := time.Duration(c.seconds / float64(c.sz.instances) * float64(time.Second))
	ops := w.roundOps(c.sz)
	for inst := range c.sz.instances {
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup(c, inst)
		if err != nil {
			return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		first := len(rounds)
		var spent time.Duration
		for {
			r := in.round(ops, false)
			rounds = append(rounds, r)
			spent += r.wall
			fmt.Fprintf(c.log, "  instance %d round %d: %9.0f ops/s  p50 %8.2f us  p99 %8.2f us  cpu %6.3f us/op  (%d samples)\n",
				inst, len(rounds)-first, r.opsPerSec(), r.p50/1e3, r.p99/1e3, r.cpuPerOp(), r.samples)
			// Stop when another round would overshoot the share by more
			// than it undershoots now.
			if spent+r.wall/2 >= share {
				break
			}
		}
		drifts = append(drifts, 100*(rounds[len(rounds)-1].opsPerSec()/rounds[first].opsPerSec()-1))
		alone, together := hostSpeed()
		fmt.Fprintf(c.log, "  host speed after instance %d: %.0f Miter/s on one CPU, %.0f each on all %d\n", inst, alone, together, nWorkers)
		a, f, err := in.finish()
		attempted += a
		failed += f
		if err != nil {
			fmt.Fprintf(c.log, "  instance %d FAILED its output check: %v\n", inst, err)
			failed++
		}
	}
	rank, err := w.rank(c)
	if err != nil {
		return report{}, fmt.Errorf("%s rank pass: %w", w.name, err)
	}
	failed += rank.misses
	fmt.Fprintf(c.log, "  set-ups %.3f s; first-to-last round drift per instance %+.1f %%; rank error over %d extractions\n", setups, drifts, rank.n)

	ms := []metric{
		{"setup_s", median(setups), "s"},
		{"ops_per_s", medianOf(rounds, roundStat.opsPerSec), "1/s"},
		{"lat_p50_us", medianOf(rounds, func(r roundStat) float64 { return r.p50 / 1e3 }), "us"},
		{"lat_p99_us", medianOf(rounds, func(r roundStat) float64 { return r.p99 / 1e3 }), "us"},
		{"cpu_us_per_op", medianOf(rounds, roundStat.cpuPerOp), "us"},
		{"peak_rss_mb", peakRSSMiB(), "MiB"},
		{"rank_err_mean", rank.mean, "ranks"},
		{"rank_err_p99", rank.p99, "ranks"},
	}
	return newReport(ms, attempted, failed), nil
}

// runTraced sets the workload up once, alternates untraced and traced
// rounds of a quarter of the usual size to price the tracing, writes the
// last traced round's spans to out/trace-<workload>.json, and then runs
// the layer probes.
func runTraced(c *runConfig, w *workload, env map[string]any) (report, error) {
	in, err := w.setup(c, 0)
	if err != nil {
		return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	ops := max(w.roundOps(c.sz)/4/chunk, 1) * chunk
	share := time.Duration(c.seconds / 4 * float64(time.Second))
	var plain, traced []roundStat
	var spent time.Duration
	for spent < share || len(traced) == 0 {
		u := in.round(ops, false)
		t := in.round(ops, true)
		plain, traced = append(plain, u), append(traced, t)
		spent += u.wall + t.wall
	}
	sums := summarize(in.recorders())
	path, err := writeTrace(c.outDir, w.name, env, in.recorders())
	if err != nil {
		return report{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(c.log, "  %d traced rounds of %d; spans of the last in %s\n", len(traced), ops, path)
	printSummary(c.log, sums)
	attempted, failed, err := in.finish()
	if err != nil {
		fmt.Fprintf(c.log, "  FAILED its output check: %v\n", err)
		failed++
	}
	overhead := 100 * (1 - medianOf(traced, roundStat.opsPerSec)/medianOf(plain, roundStat.opsPerSec))

	p, err := runProbes(c)
	if err != nil {
		fmt.Fprintf(c.log, "  probe FAILED: %v\n", err)
		p.failed++
	}
	p.add("trace.overhead_pct", overhead, "%")
	return newReport(p.metrics, attempted+p.attempted, failed+p.failed), nil
}

// environment describes the box and the run; it heads every output.
func environment(c *runConfig) map[string]any {
	e := experiment.CaptureEnv()
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	abs, err := filepath.Abs(c.walBase)
	if err != nil {
		abs = c.walBase
	}
	return map[string]any{
		"git_sha": e.GitSHA, "go": e.GoVersion, "nproc": e.Cores, "gomaxprocs": e.GOMAXPROCS, "kernel": kernel,
		"wal_dir": fmt.Sprintf("%s (%s)", c.walBase, fsType(abs)), "seed": c.seed, "scale": c.scale, "seconds": c.seconds,
	}
}

func printEnvironment(w io.Writer, env map[string]any) {
	b, _ := json.Marshal(env) // map keys marshal sorted
	fmt.Fprintf(w, "environment %s\n", b)
}

// runOne runs one workload and prints its tables and, last, its report.
func runOne(c *runConfig, name string, trace bool, stdout io.Writer) (report, error) {
	w := findWorkload(name)
	if w == nil {
		return report{}, fmt.Errorf("unknown workload %q", name)
	}
	env := environment(c)
	printEnvironment(c.log, env)
	fmt.Fprintf(c.log, "workload %s (trace %v): %s\n", w.name, trace, w.why)
	var (
		rep   report
		err   error
		order []string
	)
	if trace {
		rep, err = runTraced(c, w, env)
		order = perLayerNames
	} else {
		rep, err = runEndToEnd(c, w)
		order = endToEndNames
	}
	if err != nil {
		return report{}, err
	}
	for _, n := range order {
		if m, ok := rep.Metrics[n]; ok {
			fmt.Fprintf(c.log, "  %-34s %16.4f %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(c.log, "  attempted %d  failed %d  correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rep, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload and end with its JSON report (default: the whole suite)")
		seed    = fs.Uint64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", 15, "measured seconds per run; decides how many fixed-size rounds run")
		trace   = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		scale   = fs.String("scale", "full", "full or smoke")
		aa      = fs.Int("aa", 0, "run the suite this many times and print the A/A noise table")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown scale %q\n", *scale)
		return 2
	}
	// run.sh starts the program at the checkout's root; `go run -C bench .`
	// starts it inside bench/.
	outDir := "bench/out"
	if _, err := os.Stat("bench"); err != nil {
		outDir = "out"
	}
	c := &runConfig{seed: *seed, seconds: *seconds, scale: *scale, sz: sz, outDir: outDir, walBase: chooseWALBase(outDir), log: stdout}
	if *name == "" {
		return runSuite(c, max(*aa, 1), *aa > 0, *trace != 0, stdout, stderr)
	}
	rep, err := runOne(c, *name, *trace != 0, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed\n", *name, rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}
