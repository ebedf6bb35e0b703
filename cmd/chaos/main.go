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
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/locks"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "base seed for the fault schedule and workload")
		seeds     = flag.Int("seeds", 1, "number of consecutive seeds to sweep")
		rounds    = flag.Int("rounds", 4, "mixed+strict rounds per run")
		producers = flag.Int("producers", 4, "producer goroutines")
		consumers = flag.Int("consumers", 4, "consumer goroutines")
		ops       = flag.Int("ops", 2000, "inserts per producer per round")
		batch     = flag.Int("batch", 8, "queue batch (relaxation) parameter")
		target    = flag.Int("target", 8, "queue targetLen parameter")
		trylock   = flag.Int("trylock", 20, "forced trylock-failure percentage")
		handoff   = flag.Int("handoff", 25, "pool-handoff stall percentage")
		hazard    = flag.Int("hazard", 50, "hazard-scan stall percentage")
		grow      = flag.Int("grow", 75, "tree-growth stall percentage")
		shardedN  = flag.Int("sharded", 0, "also chaos a sharded front-end with this many shards (0 = off)")
		baselines = flag.Bool("baselines", false, "also run conservation chaos over the baselines")
		durable   = flag.Bool("durable", false, "attach a write-ahead log and verify the durable state replays to empty after the drain")
		walDir    = flag.String("waldir", "", "durability directory for -durable (default: a fresh temp dir per run)")
	)
	flag.Parse()

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
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
	runOne := func(seed uint64, shards int) {
		plan.Seed = seed
		plan.Durable = *durable
		if *durable {
			plan.WALDir = *walDir
			if plan.WALDir == "" {
				dir, err := os.MkdirTemp("", "chaos-wal-*")
				if err != nil {
					fmt.Fprintln(os.Stderr, "chaos:", err)
					os.Exit(2)
				}
				defer os.RemoveAll(dir)
				plan.WALDir = dir
			}
		}
		var res harness.ChaosResult
		var err error
		if shards > 0 {
			res, err = harness.RunChaosSharded(plan, shards)
		} else {
			res, err = harness.RunChaos(plan)
		}
		printResult(res, seed)
		if err != nil {
			failed = true
			reportFailure(res, err, seed, repro(seed, shards, ""))
		}
	}

	fmt.Printf("%-20s %-10s %9s %9s %7s %9s %8s %7s\n",
		"queue", "seed", "inserted", "extracted", "failed", "strict", "maxrank", "run")
	for s := 0; s < *seeds; s++ {
		runOne(*seed+uint64(s), 0)
	}

	if *shardedN > 0 {
		for s := 0; s < *seeds; s++ {
			runOne(*seed+uint64(s), *shardedN)
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
			printResult(res, plan.Seed)
			if err != nil {
				failed = true
				reportFailure(res, err, plan.Seed, repro(plan.Seed, 0, " -baselines"))
			}
		}
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("# all contracts held")
}

func printResult(res harness.ChaosResult, seed uint64) {
	fmt.Printf("%-20s %-10d %9d %9d %7d %9d %8d %7d\n",
		res.Name, seed, res.Inserted, res.Extracted, res.FailedExtracts,
		res.Report.StrictExtracts, res.Report.MaxStrictRank, res.Report.WorstRun)
	if len(res.FaultFired) > 0 {
		points := make([]string, 0, len(res.FaultFired))
		for p := range res.FaultFired {
			points = append(points, p)
		}
		sort.Strings(points)
		fmt.Printf("#   faults:")
		for _, p := range points {
			fmt.Printf(" %s=%d/%d", p, res.FaultFired[p], res.FaultCalls[p])
		}
		fmt.Println()
	}
	if res.WAL != nil {
		perSync := float64(0)
		if res.WAL.Syncs > 0 {
			perSync = float64(res.WAL.Ops) / float64(res.WAL.Syncs)
		}
		fmt.Printf("#   wal: %d ops in %d records, %d syncs (%.1f ops/sync), %d snapshots, %d bytes\n",
			res.WAL.Ops, res.WAL.Records, res.WAL.Syncs, perSync, res.WAL.Snapshots, res.WAL.AppendedBytes)
	}
}

func reportFailure(res harness.ChaosResult, err error, seed uint64, repro string) {
	fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", res.Name, err)
	for _, v := range res.Report.Violations {
		fmt.Fprintf(os.Stderr, "  violation: %s\n", v)
	}
	fmt.Fprintf(os.Stderr, "  fault seed: %d (schedule is deterministic per seed)\n", seed)
	fmt.Fprintf(os.Stderr, "  reproduce:  %s\n", repro)
}
