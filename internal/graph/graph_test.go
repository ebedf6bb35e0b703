package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestBuilderCSR(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 10)
	b.AddEdge(0, 2, 20)
	b.AddEdge(2, 3, 30)
	b.AddEdge(1, 3, 40)
	g := b.Build()
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if degree(g, 0) != 2 || degree(g, 3) != 0 {
		t.Fatalf("degrees wrong: %d, %d", degree(g, 0), degree(g, 3))
	}
	ts, ws := g.Neighbors(0)
	if len(ts) != 2 {
		t.Fatalf("node 0 has %d neighbors", len(ts))
	}
	seen := map[uint32]uint32{}
	for i := range ts {
		seen[ts[i]] = ws[i]
	}
	if seen[1] != 10 || seen[2] != 20 {
		t.Fatalf("neighbor weights wrong: %v", seen)
	}
}

func TestBuilderEmptyNodes(t *testing.T) {
	g := NewBuilder(3).Build()
	if g.NumNodes() != 3 || g.NumEdges() != 0 {
		t.Fatal("empty graph wrong shape")
	}
	for u := uint32(0); u < 3; u++ {
		if degree(g, u) != 0 {
			t.Fatal("unexpected edges")
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := PreferentialAttachment(500, 4, 7)
	b := PreferentialAttachment(500, 4, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("BA generator not deterministic in edge count")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("BA generator not deterministic")
		}
	}
	c := RMAT(10, 4, 9)
	d := RMAT(10, 4, 9)
	for i := range c.Targets {
		if c.Targets[i] != d.Targets[i] {
			t.Fatal("RMAT generator not deterministic")
		}
	}
}

func TestGeneratorsDifferBySeed(t *testing.T) {
	a := PreferentialAttachment(500, 4, 1)
	b := PreferentialAttachment(500, 4, 2)
	same := 0
	for i := range a.Targets {
		if i < len(b.Targets) && a.Targets[i] == b.Targets[i] {
			same++
		}
	}
	if same == len(a.Targets) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestPreferentialAttachmentShape(t *testing.T) {
	const n, m = 2000, 5
	g := PreferentialAttachment(n, m, 3)
	if g.NumNodes() != n {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Undirected: ~2*m edges per non-seed node.
	if g.NumEdges() < 2*m*(n-m-1) {
		t.Fatalf("too few edges: %d", g.NumEdges())
	}
	// Degree skew: the max degree should far exceed the mean.
	maxDeg, sumDeg := 0, 0
	for u := 0; u < n; u++ {
		d := degree(g, uint32(u))
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sumDeg) / float64(n)
	if float64(maxDeg) < 4*mean {
		t.Fatalf("degree distribution not skewed: max %d vs mean %.1f", maxDeg, mean)
	}
	// Weights must be in [1, MaxWeight].
	for _, w := range g.Weights {
		if w < 1 || w > MaxWeight {
			t.Fatalf("weight %d out of range", w)
		}
	}
}

func TestRMATShape(t *testing.T) {
	g := RMAT(12, 8, 5)
	if g.NumNodes() != 1<<12 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 2*8*(1<<12) { // undirected storage doubles
		t.Fatalf("edges = %d", g.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		ts, _ := g.Neighbors(uint32(u))
		for _, v := range ts {
			if v == uint32(u) {
				t.Fatal("self-loop survived")
			}
		}
	}
}

func TestGridShapeAndSymmetry(t *testing.T) {
	g := grid(8, 9, 1)
	if g.NumNodes() != 72 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Undirected lattice edge count: rows*(cols-1) + (rows-1)*cols, doubled.
	want := 2 * (8*8 + 7*9)
	if g.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), want)
	}
	// Symmetry: every edge must exist in reverse with equal weight.
	for u := 0; u < g.NumNodes(); u++ {
		ts, ws := g.Neighbors(uint32(u))
		for i, v := range ts {
			rts, rws := g.Neighbors(v)
			found := false
			for j, back := range rts {
				if back == uint32(u) && rws[j] == ws[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not symmetric", u, v)
			}
		}
	}
}

func TestDijkstraSmallKnown(t *testing.T) {
	//    0 --1--> 1 --1--> 2
	//    0 ----10-----> 2
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 10)
	g := b.Build()
	dist := Dijkstra(g, 0)
	want := []uint64{0, 1, 2, Infinity}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], w)
		}
	}
}

func TestDijkstraTriangleInequality(t *testing.T) {
	g := PreferentialAttachment(1000, 4, 11)
	dist := Dijkstra(g, 0)
	for u := 0; u < g.NumNodes(); u++ {
		if dist[u] == Infinity {
			continue
		}
		ts, ws := g.Neighbors(uint32(u))
		for i, v := range ts {
			if dist[u]+uint64(ws[i]) < dist[v] {
				t.Fatalf("relaxable edge %d->%d survived Dijkstra", u, v)
			}
		}
	}
}

func TestDijkstraGridQuick(t *testing.T) {
	// Property: on a grid, dist to (i,j) is at most (i+j)*MaxWeight and at
	// least max(i,j) (every step has weight >= 1, Chebyshev lower bound on
	// hop count times min weight).
	f := func(seed uint64) bool {
		g := grid(6, 6, seed)
		dist := Dijkstra(g, 0)
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				d := dist[i*6+j]
				if d == Infinity {
					return false // grid is connected
				}
				hops := i + j
				if d > uint64(hops)*MaxWeight {
					return false
				}
				if hops > 0 && d < uint64(max(i, j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNamedGraphSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("graph generation is slow in short mode")
	}
	p := Politician(1)
	if p.NumNodes() != 6000 {
		t.Fatalf("Politician nodes = %d", p.NumNodes())
	}
}

func BenchmarkDijkstraArtistLike(b *testing.B) {
	g := PreferentialAttachment(20000, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, 0)
	}
}

// degree is node u's out-degree.
func degree(g *Graph, u uint32) int {
	targets, _ := g.Neighbors(u)
	return len(targets)
}

// grid generates an undirected rows×cols lattice with uniform random
// weights in [1, MaxWeight]: a high-diameter graph where SSSP
// priority order matters most. Deterministic in (rows, cols, seed).
func grid(rows, cols int, seed uint64) *Graph {
	r := xrand.New(seed)
	b := NewBuilder(rows * cols)
	id := func(i, j int) uint32 { return uint32(i*cols + j) }
	w := func() uint32 { return weightIn(r, MaxWeight) }
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
