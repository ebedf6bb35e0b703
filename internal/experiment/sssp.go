package experiment

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/sssp"
)

// deltaStepping is the sssp-kind variant queue that runs
// sssp.DeltaStepping, the bucket-based reference algorithm, instead of a
// priority queue.
const deltaStepping = "delta-stepping"

// ssspGraphs are the §4.6 graphs by spec name, each built with at most
// nodes nodes: deterministic synthetic stand-ins for the paper's datasets
// (DESIGN §3) — the Facebook page graphs by preferential attachment at
// their node counts, LiveJournal by R-MAT with 8 edges per node.
var ssspGraphs = map[string]func(nodes int, seed uint64) *graph.Graph{
	"politician": func(nodes int, seed uint64) *graph.Graph {
		return graph.PreferentialAttachment(min(nodes, 6000), 7, seed)
	},
	"artist": func(nodes int, seed uint64) *graph.Graph {
		return graph.PreferentialAttachment(min(nodes, 50000), 16, seed)
	},
	"livejournal": func(nodes int, seed uint64) *graph.Graph {
		return graph.RMAT(bits.Len(uint(nodes))-1, 8, seed)
	},
}

// runSSSP is Figures 7–8: concurrent SSSP from node 0 of the experiment's
// graph, threads × variants, each run driven by a fresh queue from the
// variant (or by sssp.DeltaStepping). A cell's Value is the run's elapsed
// milliseconds, with the share of stale extractions in Extra. Every run's
// distances must equal graph.Dijkstra's: a single difference fails the
// experiment, since a timing of a wrong answer is no result, and so does
// a run that stalled on a queue that lost a task (sssp.ErrStalled).
func runSSSP(ex *Experiment, sc Scale, opt Options) ([]CellResult, error) {
	nodes := sc.GraphNodes
	if nodes <= 0 {
		nodes = 1 << 16
	}
	g := ssspGraphs[ex.Graph](nodes, opt.Seed)
	want := graph.Dijkstra(g, 0)
	var out []CellResult
	for _, t := range threadsFor(ex, opt) {
		for _, v := range ex.Variants {
			var res sssp.Result
			if v.Queue == deltaStepping {
				res = sssp.DeltaStepping(g, 0, 0, t)
			} else {
				mk, err := v.maker(opt)
				if err != nil {
					return nil, err
				}
				q := mk(t)
				res = sssp.Run(g, 0, q, t)
				if cl, ok := q.(pq.Closer); ok {
					cl.Close()
				}
				if res.Err != nil {
					return out, fmt.Errorf("%s at %d threads on %s: %w", v.Name, t, ex.Graph, res.Err)
				}
			}
			for i := range want {
				if res.Dist[i] != want[i] {
					return out, fmt.Errorf("%s at %d threads on %s: dist[%d] = %d, Dijkstra says %d",
						v.Name, t, ex.Graph, i, res.Dist[i], want[i])
				}
			}
			ms := float64(res.Elapsed.Nanoseconds()) / 1e6
			out = append(out, CellResult{
				Cell: Cell{
					Experiment: ex.Name, Kind: ex.Kind, Variant: v.Name,
					Graph: ex.Graph, Threads: t, Repeats: 1, Seed: opt.Seed,
				},
				Unit: "ms", Statistic: "mean", Samples: []float64{ms}, Value: ms,
				Extra: map[string]float64{
					"wasted_pct": 100 * res.WastedFraction(),
					"processed":  float64(res.Processed),
					"stale":      float64(res.Stale),
					"nodes":      float64(g.NumNodes()),
					"edges":      float64(g.NumEdges()),
				},
			})
			opt.progress("%s: %-18s threads=%-3d %8.2f ms wasted %5.2f%%",
				ex.Name, v.Name, t, ms, 100*res.WastedFraction())
		}
	}
	return out, nil
}
