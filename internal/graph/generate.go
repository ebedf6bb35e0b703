package graph

import "repro/internal/xrand"

// MaxWeight is the default maximum edge weight for generated graphs.
const MaxWeight = 1000

// PreferentialAttachment generates an undirected scale-free graph with n
// nodes by the Barabási–Albert process: each new node attaches m edges to
// existing nodes chosen proportionally to their degree. This yields the
// heavy-tailed degree distribution characteristic of the Facebook pages
// graphs the paper evaluates on. Deterministic in (n, m, seed).
func PreferentialAttachment(n, m int, seed uint64) *Graph {
	if n < 2 {
		n = 2
	}
	if m < 1 {
		m = 1
	}
	if m >= n {
		m = n - 1
	}
	r := xrand.New(seed)
	b := NewBuilder(n)
	// endpoints records every edge endpoint; sampling a uniform element of
	// it is exactly degree-proportional sampling.
	endpoints := make([]uint32, 0, 2*n*m)

	// Seed clique over the first m+1 nodes.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			b.AddUndirected(uint32(u), uint32(v), weightIn(r, MaxWeight))
			endpoints = append(endpoints, uint32(u), uint32(v))
		}
	}
	chosen := make(map[uint32]bool, m)
	order := make([]uint32, 0, m) // deterministic edge order (maps iterate randomly)
	for u := m + 1; u < n; u++ {
		for _, k := range order {
			delete(chosen, k)
		}
		order = order[:0]
		for len(order) < m {
			var v uint32
			if r.Intn(10) == 0 {
				// Small uniform component keeps the graph connected-ish
				// and mixes in low-degree targets.
				v = uint32(r.Intn(u))
			} else {
				v = endpoints[r.Intn(len(endpoints))]
			}
			if v == uint32(u) || chosen[v] {
				continue
			}
			chosen[v] = true
			order = append(order, v)
		}
		for _, v := range order {
			b.AddUndirected(uint32(u), v, weightIn(r, MaxWeight))
			endpoints = append(endpoints, uint32(u), v)
		}
	}
	return b.Build()
}

// RMAT generates a directed graph with 2^scale nodes and edgeFactor·2^scale
// edges by recursive matrix sampling with the canonical Graph500
// probabilities (a=0.57, b=0.19, c=0.19, d=0.05). The resulting skewed,
// community-structured graph stands in for LiveJournal in Figure 8.
// Deterministic in (scale, edgeFactor, seed). Self-loops are re-sampled;
// parallel edges are kept (they are harmless to SSSP).
func RMAT(scale, edgeFactor int, seed uint64) *Graph {
	n := 1 << scale
	edges := n * edgeFactor
	r := xrand.New(seed)
	b := NewBuilder(n)
	for i := 0; i < edges; i++ {
		u, v := rmatPick(r, scale)
		for u == v {
			u, v = rmatPick(r, scale)
		}
		// Store both directions: SSSP on a weakly-connected directed graph
		// reaches few nodes; the paper's road-style usage wants reachability.
		b.AddUndirected(u, v, weightIn(r, MaxWeight))
	}
	return b.Build()
}

func rmatPick(r *xrand.Rand, scale int) (uint32, uint32) {
	var u, v uint32
	for bit := 0; bit < scale; bit++ {
		p := r.Float64()
		switch {
		case p < 0.57: // a: upper-left
		case p < 0.76: // b: upper-right
			v |= 1 << bit
		case p < 0.95: // c: lower-left
			u |= 1 << bit
		default: // d: lower-right
			u |= 1 << bit
			v |= 1 << bit
		}
	}
	return u, v
}

// Politician approximates the Facebook "Politician" pages graph of the
// paper's §4.6 (see the substitution note in the package comment): 6K
// nodes. The grid's sssp experiments build it, the Artist graph (50K
// nodes, 16 edges per node) and LiveJournal (R-MAT, 8 edges per node)
// from the same generators.
func Politician(seed uint64) *Graph { return PreferentialAttachment(6000, 7, seed) }
