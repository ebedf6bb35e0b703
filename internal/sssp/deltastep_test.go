package sssp

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":   graph.PreferentialAttachment(3000, 6, 42),
		"grid": grid(40, 40, 9),
		"rmat": graph.RMAT(10, 6, 5),
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			want := graph.Dijkstra(g, 0)
			for _, workers := range []int{1, 4} {
				for _, delta := range []uint64{0, 1, 100, 10000} {
					res := DeltaStepping(g, 0, delta, workers)
					for i := range want {
						if res.Dist[i] != want[i] {
							t.Fatalf("delta=%d workers=%d: dist[%d] = %d, want %d",
								delta, workers, i, res.Dist[i], want[i])
						}
					}
				}
			}
		})
	}
}

func TestDeltaSteppingDisconnected(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddUndirected(0, 1, 3)
	b.AddUndirected(1, 2, 4)
	g := b.Build()
	res := DeltaStepping(g, 0, 2, 2)
	if res.Dist[0] != 0 || res.Dist[1] != 3 || res.Dist[2] != 7 {
		t.Fatalf("distances wrong: %v", res.Dist[:3])
	}
	if res.Dist[3] != graph.Infinity || res.Dist[4] != graph.Infinity {
		t.Fatal("isolated nodes should be unreachable")
	}
}

func TestDeltaSteppingWorkAccounting(t *testing.T) {
	g := graph.PreferentialAttachment(2000, 5, 7)
	res := DeltaStepping(g, 0, 0, 4)
	if res.Processed == 0 {
		t.Fatal("no work processed")
	}
	if res.WastedFraction() < 0 || res.WastedFraction() > 1 {
		t.Fatalf("wasted fraction %v", res.WastedFraction())
	}
	// Huge delta = one bucket = Bellman-Ford-ish: still correct.
	res2 := DeltaStepping(g, 0, 1<<40, 4)
	want := graph.Dijkstra(g, 0)
	for i := range want {
		if res2.Dist[i] != want[i] {
			t.Fatalf("one-bucket delta-stepping wrong at %d", i)
		}
	}
}

func TestDeltaSteppingQuickGrids(t *testing.T) {
	f := func(seed uint64, deltaRaw uint16) bool {
		g := grid(8, 8, seed)
		delta := uint64(deltaRaw)%500 + 1
		res := DeltaStepping(g, 0, delta, 2)
		want := graph.Dijkstra(g, 0)
		for i := range want {
			if res.Dist[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeltaStepping(b *testing.B) {
	g := graph.PreferentialAttachment(20000, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeltaStepping(g, 0, 0, 4)
	}
}
