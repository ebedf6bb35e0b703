// Package graph provides the weighted-graph substrate for the paper's
// single-source shortest path experiments (§4.6, §4.7): a compact CSR
// representation, deterministic synthetic generators standing in for the
// proprietary Facebook graphs and the LiveJournal snapshot, and a
// sequential Dijkstra used as the correctness oracle.
//
// Substitution note (see DESIGN.md): the paper evaluates on the Facebook
// "Artist" (50K nodes) and "Politician" (6K nodes) pages graphs and on
// LiveJournal (3.8M nodes). Those datasets are not redistributable, so this
// package generates deterministic scale-free graphs with the same node
// counts and comparable densities via preferential attachment (social-graph
// degree skew) and R-MAT (LiveJournal-like community structure). The SSSP
// experiments measure how queue relaxation translates into wasted
// re-expansions on skewed graphs, which depends on the degree distribution
// and diameter, not on the exact edge identities.
package graph

import (
	"fmt"

	"repro/internal/xrand"
)

// Graph is a weighted directed graph in compressed sparse row form.
// Undirected graphs store each edge in both directions.
type Graph struct {
	// Offsets has length NumNodes+1; the out-edges of node u are
	// Targets[Offsets[u]:Offsets[u+1]] with weights in the parallel
	// Weights slice.
	Offsets []uint64
	Targets []uint32
	Weights []uint32
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Offsets) - 1 }

// NumEdges returns the stored (directed) edge count.
func (g *Graph) NumEdges() int { return len(g.Targets) }

// Neighbors returns node u's targets and weights as parallel slices.
func (g *Graph) Neighbors(u uint32) ([]uint32, []uint32) {
	lo, hi := g.Offsets[u], g.Offsets[u+1]
	return g.Targets[lo:hi], g.Weights[lo:hi]
}

// edge is the builder's staging representation.
type edge struct {
	from, to uint32
	weight   uint32
}

// Builder accumulates edges and produces a CSR Graph.
type Builder struct {
	n     int
	edges []edge
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge adds a directed edge.
func (b *Builder) AddEdge(from, to uint32, weight uint32) {
	b.edges = append(b.edges, edge{from, to, weight})
}

// AddUndirected adds the edge in both directions with the same weight.
func (b *Builder) AddUndirected(u, v uint32, weight uint32) {
	b.AddEdge(u, v, weight)
	b.AddEdge(v, u, weight)
}

// Build produces the CSR graph. The builder may not be reused after Build.
func (b *Builder) Build() *Graph {
	g := &Graph{
		Offsets: make([]uint64, b.n+1),
		Targets: make([]uint32, len(b.edges)),
		Weights: make([]uint32, len(b.edges)),
	}
	// Counting sort by source: degree histogram, prefix sums, placement.
	for _, e := range b.edges {
		g.Offsets[e.from+1]++
	}
	for i := 1; i <= b.n; i++ {
		g.Offsets[i] += g.Offsets[i-1]
	}
	cursor := make([]uint64, b.n)
	for _, e := range b.edges {
		pos := g.Offsets[e.from] + cursor[e.from]
		cursor[e.from]++
		g.Targets[pos] = e.to
		g.Weights[pos] = e.weight
	}
	b.edges = nil
	return g
}

// String summarizes the graph for logs.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes=%d edges=%d}", g.NumNodes(), g.NumEdges())
}

// weightIn draws a uniform weight in [1, maxW].
func weightIn(r *xrand.Rand, maxW uint32) uint32 {
	return 1 + uint32(r.Uint64n(uint64(maxW)))
}
