// Command chaos runs seeded fault-injection schedules against ZMSQ (and
// optionally the baseline queues), checking the robustness contracts the
// paper claims: structural invariants between rounds, element
// conservation, extraction-never-fails on a nonempty queue (§3.7), and
// the b+1 relaxation window (§3.3). It exits nonzero if any contract is
// violated, so it can gate CI.
//
// On failure it prints, next to the violation, the exact seed that
// produced the fault schedule and a copy-pasteable command that replays
// just that run — the schedule is deterministic per seed, so the repro
// is too.
//
//	chaos -seed 1 -rounds 4 -producers 4 -consumers 4 -ops 2000
//	chaos -seeds 16            # sweep 16 seeds
//	chaos -sharded 3           # also chaos the sharded front-end (3 shards,
//	                           # composed S·(b+1) window, per-shard never-fails)
//	chaos -durable             # attach a WAL; after the drain the durable
//	                           # state must replay to empty
//	chaos -baselines           # also run conservation checks on baselines
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/locks"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Uint64("seed", 1, "base seed for the fault schedule and workload")
		seeds     = fs.Int("seeds", 1, "number of consecutive seeds to sweep")
		rounds    = fs.Int("rounds", 4, "mixed+strict rounds per run")
		producers = fs.Int("producers", 4, "producer goroutines")
		consumers = fs.Int("consumers", 4, "consumer goroutines")
		ops       = fs.Int("ops", 2000, "inserts per producer per round")
		batch     = fs.Int("batch", 8, "queue batch (relaxation) parameter")
		target    = fs.Int("target", 8, "queue targetLen parameter")
		trylock   = fs.Int("trylock", 20, "forced trylock-failure percentage")
		handoff   = fs.Int("handoff", 25, "pool-handoff stall percentage")
		hazard    = fs.Int("hazard", 50, "hazard-scan stall percentage")
		grow      = fs.Int("grow", 75, "tree-growth stall percentage")
		shardedN  = fs.Int("sharded", 0, "also chaos a sharded front-end with this many shards (0 or 1 = off)")
		baselines = fs.Bool("baselines", false, "also run conservation chaos over the baselines")
		durable   = fs.Bool("durable", false, "attach a write-ahead log and verify the durable state replays to empty after the drain")
		walDir    = fs.String("waldir", "", "durability directory for -durable (default: a fresh temp dir per run)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	plan := harness.ChaosPlan{
		Rounds:      *rounds,
		Producers:   *producers,
		Consumers:   *consumers,
		OpsPerRound: *ops,
		Faults: fault.Plan{
			TryLockPct:        *trylock,
			PoolHandoffPct:    *handoff,
			PoolHandoffYields: 8,
			HazardScanPct:     *hazard,
			HazardScanYields:  16,
			TreeGrowPct:       *grow,
			TreeGrowYields:    32,
		},
		Queue: core.Config{
			Batch:     *batch,
			TargetLen: *target,
			Lock:      locks.TATAS,
		},
		Keys: harness.Uniform20,
	}
	if err := plan.Queue.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// repro reconstructs the exact command that replays one run: the fault
	// schedule, workload, and crash-cut randomization are all functions of
	// the seed, so the single-seed command reproduces the failure.
	repro := func(seed uint64, shards int, extra string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "go run ./cmd/chaos -seed %d -seeds 1 -rounds %d -producers %d -consumers %d -ops %d -batch %d -target %d -trylock %d -handoff %d -hazard %d -grow %d",
			seed, *rounds, *producers, *consumers, *ops, *batch, *target, *trylock, *handoff, *hazard, *grow)
		if shards > 0 {
			fmt.Fprintf(&b, " -sharded %d", shards)
		}
		if *durable {
			b.WriteString(" -durable")
			if *walDir != "" {
				fmt.Fprintf(&b, " -waldir %s", *walDir)
			}
		}
		b.WriteString(extra)
		return b.String()
	}

	failed := false
	runOne := func(seed uint64, shards int) error {
		plan.Seed = seed
		plan.Shards = shards
		plan.Durable = *durable
		if *durable {
			plan.WALDir = *walDir
			if plan.WALDir == "" {
				dir, err := os.MkdirTemp("", "chaos-wal-*")
				if err != nil {
					return err
				}
				defer os.RemoveAll(dir)
				plan.WALDir = dir
			}
		}
		res, err := harness.RunChaos(plan)
		printResult(stdout, res, seed)
		if err != nil {
			failed = true
			reportFailure(stderr, res, err, seed, repro(seed, shards, ""))
		}
		return nil
	}

	fmt.Fprintf(stdout, "%-20s %-10s %9s %9s %7s %9s %8s %7s\n",
		"queue", "seed", "inserted", "extracted", "failed", "strict", "maxrank", "run")
	shapes := []int{0}
	if *shardedN > 1 {
		shapes = append(shapes, *shardedN)
	}
	for _, shards := range shapes {
		for s := 0; s < *seeds; s++ {
			if err := runOne(*seed+uint64(s), shards); err != nil {
				fmt.Fprintln(stderr, "chaos:", err)
				return 2
			}
		}
	}

	if *baselines {
		makers := harness.BaselineMakers()
		names := make([]string, 0, len(makers))
		for name := range makers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			plan.Seed = *seed
			res, err := harness.RunChaosBaseline(name, makers[name], plan)
			printResult(stdout, res, plan.Seed)
			if err != nil {
				failed = true
				reportFailure(stderr, res, err, plan.Seed, repro(plan.Seed, 0, " -baselines"))
			}
		}
	}

	if failed {
		return 1
	}
	fmt.Fprintln(stdout, "# all contracts held")
	return 0
}

func printResult(w io.Writer, res harness.ChaosResult, seed uint64) {
	fmt.Fprintf(w, "%-20s %-10d %9d %9d %7d %9d %8d %7d\n",
		res.Name, seed, res.Inserted, res.Extracted, res.FailedExtracts,
		res.Report.StrictExtracts, res.Report.MaxStrictRank, res.Report.WorstRun)
	if len(res.FaultFired) > 0 {
		points := make([]string, 0, len(res.FaultFired))
		for p := range res.FaultFired {
			points = append(points, p)
		}
		sort.Strings(points)
		fmt.Fprintf(w, "#   faults:")
		for _, p := range points {
			fmt.Fprintf(w, " %s=%d/%d", p, res.FaultFired[p], res.FaultCalls[p])
		}
		fmt.Fprintln(w)
	}
	if res.WAL != nil {
		perSync := float64(0)
		if res.WAL.Syncs > 0 {
			perSync = float64(res.WAL.Ops) / float64(res.WAL.Syncs)
		}
		fmt.Fprintf(w, "#   wal: %d ops in %d records, %d syncs (%.1f ops/sync), %d snapshots, %d bytes\n",
			res.WAL.Ops, res.WAL.Records, res.WAL.Syncs, perSync, res.WAL.Snapshots, res.WAL.AppendedBytes)
	}
}

func reportFailure(w io.Writer, res harness.ChaosResult, err error, seed uint64, repro string) {
	fmt.Fprintf(w, "FAIL %s: %v\n", res.Name, err)
	for _, v := range res.Report.Violations {
		fmt.Fprintf(w, "  violation: %s\n", v)
	}
	fmt.Fprintf(w, "  fault seed: %d (schedule is deterministic per seed)\n", seed)
	fmt.Fprintf(w, "  reproduce:  %s\n", repro)
}
