// Command sssp regenerates Figures 7 and 8: concurrent single-source
// shortest path on social graphs, driven by each priority queue.
//
//	sssp -graph artist -threads 1,2,4,8        # Figure 7 (left)
//	sssp -graph politician -threads 1,2,4,8    # Figure 7 (right)
//	sssp -graph livejournal -scale 18 -tune    # Figure 8 (tuning sweep)
//
// The Facebook and LiveJournal datasets are proprietary; deterministic
// synthetic graphs with the paper's node counts stand in (see DESIGN.md).
// Every run is validated against sequential Dijkstra before timing is
// reported.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/pq"
	"repro/internal/sssp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sssp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphName  = fs.String("graph", "artist", "artist|politician|livejournal|grid")
		scale      = fs.Int("scale", 18, "livejournal RMAT scale (2^scale nodes)")
		threadsCSV = fs.String("threads", "1,2,4,8", "worker counts")
		seed       = fs.Uint64("seed", 1, "graph seed")
		tune       = fs.Bool("tune", false, "sweep (batch,targetLen) configurations (Figure 8)")
		validate   = fs.Bool("validate", true, "check results against sequential Dijkstra")
		deltastep  = fs.Bool("deltastep", true, "include the delta-stepping reference rows")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var g *graph.Graph
	switch *graphName {
	case "artist":
		g = graph.Artist(*seed)
	case "politician":
		g = graph.Politician(*seed)
	case "livejournal":
		g = graph.LiveJournalScaled(*scale, *seed)
	case "grid":
		g = graph.Grid(1000, 1000, *seed)
	default:
		fmt.Fprintf(stderr, "unknown graph %q\n", *graphName)
		return 2
	}
	fmt.Fprintf(stdout, "# SSSP on %s: %v\n", *graphName, g)

	var threads []int
	for _, part := range strings.Split(*threadsCSV, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || t < 1 {
			fmt.Fprintf(stderr, "bad thread count %q\n", part)
			return 2
		}
		threads = append(threads, t)
	}

	var oracle []uint64
	if *validate {
		oracle = graph.Dijkstra(g, 0)
	}

	type cell struct {
		name string
		mk   harness.QueueMaker
	}
	var cells []cell
	if *tune {
		// Figure 8's seven memory-safe configurations plus the leak and
		// array variants of the best performer (42, 64).
		for _, bt := range [][2]int{{16, 24}, {24, 36}, {32, 48}, {42, 64}, {48, 72}, {64, 96}, {96, 144}} {
			bt := bt
			cells = append(cells, cell{
				fmt.Sprintf("zmsq(%d,%d)", bt[0], bt[1]),
				func(int) pq.Queue {
					return harness.NewHazardZMSQ(core.Config{Batch: bt[0], TargetLen: bt[1]})
				},
			})
		}
		cells = append(cells,
			cell{"zmsq(42,64)leak", func(int) pq.Queue {
				return harness.NewZMSQ(core.Config{Batch: 42, TargetLen: 64})
			}},
			cell{"zmsq(42,64)array", func(int) pq.Queue {
				return harness.NewZMSQ(core.Config{Batch: 42, TargetLen: 64, SetMode: core.SetModeArray})
			}},
			cell{"spraylist", harness.Makers()["spraylist"]},
		)
	} else {
		// Figure 7 uses the tuned (42, 64) ZMSQ, memory-safe as in the
		// paper, beside its array and leak variants.
		cells = []cell{
			{"zmsq(42,64)", func(int) pq.Queue {
				return harness.NewHazardZMSQ(core.Config{Batch: 42, TargetLen: 64})
			}},
			{"zmsq(42,64)array", func(int) pq.Queue {
				return harness.NewZMSQ(core.Config{Batch: 42, TargetLen: 64, SetMode: core.SetModeArray})
			}},
			{"zmsq(42,64)leak", func(int) pq.Queue {
				return harness.NewZMSQ(core.Config{Batch: 42, TargetLen: 64})
			}},
			{"mound", harness.Makers()["mound"]},
			{"spraylist", harness.Makers()["spraylist"]},
		}
	}

	check := func(res sssp.Result) string {
		if !*validate {
			return "-"
		}
		for i := range oracle {
			if res.Dist[i] != oracle[i] {
				return "WRONG"
			}
		}
		return "ok"
	}

	fmt.Fprintf(stdout, "%-18s %-8s %-14s %-10s %-8s\n", "queue", "threads", "elapsed", "wasted", "ok")
	for _, t := range threads {
		for _, c := range cells {
			res := sssp.Run(g, 0, c.mk(t), t)
			fmt.Fprintf(stdout, "%-18s %-8d %-14v %-10.2f%% %-8s\n",
				c.name, t, res.Elapsed, 100*res.WastedFraction(), check(res))
		}
		if *deltastep {
			// The bucket-based reference algorithm (see deltastep.go):
			// scalability without a priority queue, at the cost of
			// in-bucket re-relaxation.
			res := sssp.DeltaStepping(g, 0, 0, t)
			fmt.Fprintf(stdout, "%-18s %-8d %-14v %-10.2f%% %-8s\n",
				"delta-stepping", t, res.Elapsed, 100*res.WastedFraction(), check(res))
		}
	}
	return 0
}
