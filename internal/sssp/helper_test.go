package sssp

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func coreDefault() core.Config { return core.DefaultConfig() }

// grid generates an undirected rows×cols lattice with uniform random
// weights in [1, graph.MaxWeight]: a high-diameter graph where SSSP
// priority order matters most. Deterministic in (rows, cols, seed).
func grid(rows, cols int, seed uint64) *graph.Graph {
	r := xrand.New(seed)
	b := graph.NewBuilder(rows * cols)
	id := func(i, j int) uint32 { return uint32(i*cols + j) }
	w := func() uint32 { return 1 + uint32(r.Uint64n(graph.MaxWeight)) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				b.AddUndirected(id(i, j), id(i, j+1), w())
			}
			if i+1 < rows {
				b.AddUndirected(id(i, j), id(i+1, j), w())
			}
		}
	}
	return b.Build()
}
