// Command expgrid is the one front door to the experiment grid: it loads
// the grid spec (embedded by default, -spec to override), runs the
// requested experiments or the experiments behind the requested gates,
// evaluates each gate's declarative threshold, writes the grid
// (expgrid.{json,txt,csv}) and the canonical per-gate reports under -out,
// and — with -trajectory — appends the gate metrics to the cross-PR perf
// ledger and fails on configured regressions against the previous entry.
//
//	expgrid -list                               # show the grid
//	expgrid -experiments fig5c -scale smoke     # run one experiment
//	expgrid -experiments paper -out results     # every table and figure of the paper
//	expgrid -experiments fig7a,fig7b,fig8       # Figures 7–8: SSSP, checked against Dijkstra
//	expgrid -gates chaos,chaos-durable          # the fault-injected contract gates
//	expgrid -experiments fig5c -keys uniform7 -threads 1,2,4 -ops 2000000
//	expgrid -experiments fig5c -metrics -metricsaddr :8217
//	expgrid -scale small                        # run + judge every gate
//	expgrid -gates alloc -ops 4000              # one gate, overridden size
//	expgrid -scale small -trajectory            # ... and append/diff the ledger
//
// The shape of an experiment — sizes, ratios, variants, mixes — is spec
// data: edit a copy of internal/experiment/experiments.json and pass it
// with -spec. Every failure prints the copy-pasteable repro command for
// the exact cells behind the verdict. Exit codes: 0 = ran and every judged
// gate held, 1 = a gate failed, a trajectory metric regressed or a cell
// could not run, 2 = the request itself was wrong and nothing ran.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/harness"
	"repro/internal/pq"
	"repro/internal/server"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("expgrid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath    = fs.String("spec", "", "grid spec JSON (empty = embedded default)")
		scale       = fs.String("scale", "small", "scale tier: smoke|small|full")
		seed        = fs.Uint64("seed", 1, "base workload, fault-schedule and graph seed (failures print it back as a repro command)")
		experiments = fs.String("experiments", "", "comma-separated experiment names to run; \"paper\" = every paper table and figure (empty = the experiments behind -gates)")
		gates       = fs.String("gates", "", "comma-separated gate names to judge (empty = all gates; ignored when -experiments is set)")
		out         = fs.String("out", "results", "directory for expgrid.{json,txt,csv} + gate reports (empty = no files)")
		trajectory  = fs.Bool("trajectory", false, "append gate metrics to the trajectory ledger and fail on configured regressions")
		trajFile    = fs.String("trajfile", "", "trajectory ledger path (default <out>/BENCH_trajectory.json)")
		mdOut       = fs.String("mdout", "", "append a markdown gate summary here (for CI job summaries)")
		list        = fs.Bool("list", false, "print the grid spec summary and exit")
		ops         = fs.Int("ops", 0, "operations per cell: throughput ops, handoff items, alloc measured runs, chaos inserts per producer per round (0 = spec/scale)")
		threadsCSV  = fs.String("threads", "", "comma-separated thread counts for every experiment (empty = spec)")
		repeats     = fs.Int("repeats", 0, "samples, paired rounds, accuracy trials, or recovery and chaos seeds per cell (0 = spec/scale)")
		shards      = fs.Int("shards", 0, "shard count of the recovery and chaos experiments' sharded shape (0 = spec)")
		keys        = fs.String("keys", "", "key distribution for every experiment: uniform20|uniform7|normal20|uniform64 (empty = spec)")
		metrics     = fs.Bool("metrics", false, "enable Config.Metrics on every zmsq/sharded cell; cells carry the snapshot")
		metricsAddr = fs.String("metricsaddr", "", "serve /metrics, /metrics.json, /debug/pprof of the running cell's queue here (implies -metrics)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "expgrid: unexpected argument %q (every setting is a flag)\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	// A repro command must carry the overrides this run was given.
	overrides := ""
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "spec", "ops", "threads", "repeats", "shards", "keys", "metrics":
			overrides += fmt.Sprintf(" -%s=%s", f.Name, f.Value)
		}
	})
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "expgrid:", err)
		return code
	}

	spec, err := experiment.LoadSpec(*specPath)
	if err != nil {
		return fail(2, err)
	}
	if *list {
		printSpec(stdout, spec)
		return 0
	}

	selected, err := spec.SelectGates(*gates)
	if err != nil {
		return fail(2, err)
	}
	var names []string
	judge := true
	if strings.TrimSpace(*experiments) != "" {
		for _, n := range strings.Split(*experiments, ",") {
			if n = strings.TrimSpace(n); n == "paper" {
				names = append(names, spec.PaperExperiments()...)
			} else {
				names = append(names, n)
			}
		}
		judge = false
	} else {
		names = experiment.GateExperiments(selected)
	}

	opt := experiment.Options{
		Scale:   *scale,
		Seed:    *seed,
		Ops:     *ops,
		Repeats: *repeats,
		Shards:  *shards,
		Keys:    *keys,
		Metrics: *metrics || *metricsAddr != "",
		Progress: func(format string, args ...any) {
			fmt.Fprintf(stdout, "expgrid: "+format+"\n", args...)
		},
	}
	if *threadsCSV != "" {
		for _, part := range strings.Split(*threadsCSV, ",") {
			t, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || t < 1 {
				return fail(2, fmt.Errorf("bad -threads: invalid thread count %q", part))
			}
			opt.Threads = append(opt.Threads, t)
		}
	}
	if *metricsAddr != "" {
		// The endpoints serve whichever queue the grid built most recently.
		var live atomic.Pointer[func() core.MetricsSnapshot]
		opt.OnQueue = func(q pq.Queue) {
			if src, ok := q.(harness.MetricsSource); ok {
				f := src.Snapshot
				live.Store(&f)
			}
		}
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fail(2, fmt.Errorf("bad -metricsaddr: %w", err))
		}
		defer ln.Close()
		fmt.Fprintf(stdout, "expgrid: metrics on http://%s/metrics\n", ln.Addr())
		mux := server.NewMetricsMux(func(tenant string) (server.View, bool) {
			var snap core.MetricsSnapshot
			if f := live.Load(); f != nil {
				snap = (*f)()
			}
			return snap, tenant == ""
		})
		go func() {
			if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(stderr, "expgrid: metrics server:", err)
			}
		}()
	}

	grid, err := spec.Run(names, opt)
	if grid == nil {
		return fail(2, err) // the request did not resolve; nothing ran
	}
	if err != nil {
		return fail(1, err)
	}

	rec := &harness.Recorder{}
	for _, row := range experiment.Rows(grid) {
		rec.Add(row)
	}
	if err := rec.WriteText(stdout); err != nil {
		return fail(1, err)
	}
	if *out != "" {
		if err := experiment.WriteJSON(filepath.Join(*out, "expgrid.json"), grid); err != nil {
			return fail(1, err)
		}
		if err := writeFile(filepath.Join(*out, "expgrid.txt"), rec.WriteText); err != nil {
			return fail(1, err)
		}
		if err := writeFile(filepath.Join(*out, "expgrid.csv"), rec.WriteCSV); err != nil {
			return fail(1, err)
		}
	}
	if !judge {
		return 0
	}

	failed := 0
	var results []experiment.GateResult
	for _, g := range selected {
		res, err := g.Eval(grid)
		if err != nil {
			return fail(1, err)
		}
		results = append(results, res)
		if *out != "" {
			if err := experiment.WriteGateReport(*out, grid, g, res); err != nil {
				return fail(1, err)
			}
		}
		switch {
		case res.Skipped:
			fmt.Fprintf(stdout, "expgrid: gate %-18s SKIP — %s (%s)\n", res.Name, res.SkipReason, res.Detail)
		case res.Pass:
			fmt.Fprintf(stdout, "expgrid: gate %-18s PASS — %s\n", res.Name, res.Detail)
		default:
			failed++
			reportFailure(stderr, g, res, grid, overrides)
		}
	}

	var regs []experiment.Regression
	if *trajectory {
		path := *trajFile
		if path == "" {
			dir := *out
			if dir == "" {
				dir = "results"
			}
			path = filepath.Join(dir, "BENCH_trajectory.json")
		}
		traj, err := experiment.LoadTrajectory(path)
		if err != nil {
			return fail(1, err)
		}
		cur := experiment.TrajectoryEntry{Env: grid.Env, Scale: grid.Scale, Seed: grid.Seed, Gates: results}
		prev := traj.Append(cur)
		if prev != nil && prev.Scale != cur.Scale {
			fmt.Fprintf(stdout, "expgrid: previous trajectory entry ran at scale %q, this one at %q — recording without regression comparison\n",
				prev.Scale, cur.Scale)
		}
		if prev != nil && prev.Scale == cur.Scale {
			regs = experiment.CompareGates(spec, prev.Gates, results)
		}
		fmt.Fprint(stdout, experiment.RenderComparison(prev, cur, regs))
		if err := traj.Save(path); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "expgrid: trajectory updated at %s (%d entries)\n", path, len(traj.Entries))
		for _, r := range regs {
			g := spec.Gate(r.Gate)
			fmt.Fprintf(stderr, "expgrid: REGRESSION %s\n", r)
			if g != nil {
				fmt.Fprintf(stderr, "expgrid: reproduce with: %s%s\n", experiment.ReproCommand(*g, grid), overrides)
			}
		}
	}

	if *mdOut != "" {
		f, err := os.OpenFile(*mdOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fail(1, err)
		}
		_, werr := f.WriteString(experiment.MarkdownSummary(grid, results, regs))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fail(1, werr)
		}
	}

	if failed > 0 || len(regs) > 0 {
		fmt.Fprintf(stderr, "expgrid: %d gate(s) failed, %d regression(s)\n", failed, len(regs))
		return 1
	}
	return 0
}

// reportFailure prints a red gate: the verdict, every errored cell behind
// it, and the command that reruns exactly that measurement.
func reportFailure(w io.Writer, g experiment.GateSpec, res experiment.GateResult, grid *experiment.GridResult, overrides string) {
	fmt.Fprintf(w, "expgrid: gate %-18s FAIL — %s\n", res.Name, res.Detail)
	for _, c := range grid.Cells {
		if c.Cell.Experiment != g.Experiment || c.Error == "" {
			continue
		}
		label := c.Cell.Variant
		if c.Cell.CrashKind != "" {
			label += "/" + c.Cell.CrashKind
		}
		fmt.Fprintf(w, "expgrid:   cell %s seed=%d: %s\n", label, c.Cell.Seed, c.Error)
	}
	fmt.Fprintf(w, "expgrid: reproduce with: %s%s\n", experiment.ReproCommand(g, grid), overrides)
}

// writeFile renders one report form into path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func printSpec(w io.Writer, spec *experiment.Spec) {
	fmt.Fprintln(w, "scales:")
	for _, name := range []string{"smoke", "small", "full"} {
		if sc, ok := spec.Scales[name]; ok {
			fmt.Fprintf(w, "  %-6s ops=%d handoffs=%d repeats=%d trials=%d alloc_runs=%d recovery_seeds=%d graph_nodes=%d\n",
				name, sc.Ops, sc.Handoffs, sc.Repeats, sc.Trials, sc.AllocRuns, sc.RecoverySeeds, sc.GraphNodes)
		}
	}
	fmt.Fprintln(w, "experiments:")
	for _, ex := range spec.Experiments {
		tag := ""
		if ex.Paper {
			tag = " [paper]"
		}
		fmt.Fprintf(w, "  %-18s kind=%-10s variants=%d%s\n", ex.Name, ex.Kind, len(ex.Variants), tag)
	}
	fmt.Fprintln(w, "gates:")
	for _, g := range spec.Gates {
		fmt.Fprintf(w, "  %-18s kind=%-9s experiment=%-18s threshold=%v out=%s\n",
			g.Name, g.Kind, g.Experiment, g.Threshold, g.Out)
	}
}
