package sssp

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/pq"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []struct {
		dist uint64
		node uint32
	}{
		{0, 0}, {1, 1}, {12345, 67890}, {0xfffffffe, 0xffffffff},
	}
	for _, c := range cases {
		d, n := DecodeTask(EncodeTask(c.dist, c.node))
		if d != c.dist || n != c.node {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", c.dist, c.node, d, n)
		}
	}
}

func TestEncodeClampsDistance(t *testing.T) {
	d, _ := DecodeTask(EncodeTask(^uint64(0), 5))
	if d != 0xfffffffe {
		t.Fatalf("huge distance not clamped: %d", d)
	}
}

func TestEncodeOrdering(t *testing.T) {
	// Smaller distance must map to a larger key (higher priority).
	f := func(a, b uint32, n1, n2 uint32) bool {
		da, db := uint64(a), uint64(b)
		ka, kb := EncodeTask(da, n1), EncodeTask(db, n2)
		if da < db {
			return ka > kb
		}
		if da > db {
			return ka < kb
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func matchesDijkstra(t *testing.T, g *graph.Graph, got []uint64) {
	t.Helper()
	want := graph.Dijkstra(g, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMatchesDijkstraAllQueues(t *testing.T) {
	g := graph.PreferentialAttachment(3000, 6, 42)
	for name, mk := range harness.Makers() {
		if name == "fifo" {
			continue // a FIFO is a valid label-correcting driver but very slow; covered separately
		}
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 4} {
				res := Run(g, 0, mk(workers), workers)
				matchesDijkstra(t, g, res.Dist)
				if res.Processed == 0 {
					t.Fatal("no tasks processed")
				}
			}
		})
	}
}

func TestFIFOStillCorrect(t *testing.T) {
	// Label-correcting SSSP is correct with ANY queue discipline; a FIFO
	// (Bellman-Ford-ish) just wastes more work. Small graph keeps it fast.
	g := grid(12, 12, 3)
	res := Run(g, 0, pq.NewFIFO(), 4)
	matchesDijkstra(t, g, res.Dist)
}

func TestGridCorrectness(t *testing.T) {
	g := grid(40, 40, 9)
	res := Run(g, 0, pq.NewGlobalHeap(0), 4)
	matchesDijkstra(t, g, res.Dist)
}

func TestStrictSingleWorkerNoStaleExplosion(t *testing.T) {
	// A strict queue with one worker is classic Dijkstra: stale tasks only
	// arise from decrease-key-by-reinsertion, never from relaxation, so
	// processed tasks == reachable nodes.
	g := graph.PreferentialAttachment(2000, 5, 7)
	res := Run(g, 0, pq.NewGlobalHeap(0), 1)
	reachable := 0
	for _, d := range res.Dist {
		if d != graph.Infinity {
			reachable++
		}
	}
	if res.Processed != int64(reachable) {
		t.Fatalf("processed %d tasks for %d reachable nodes", res.Processed, reachable)
	}
}

func TestWastedFractionAccounting(t *testing.T) {
	g := graph.PreferentialAttachment(2000, 5, 8)
	res := Run(g, 0, harness.NewZMSQ(coreDefault()), 4)
	if res.WastedFraction() < 0 || res.WastedFraction() > 1 {
		t.Fatalf("wasted fraction %v out of range", res.WastedFraction())
	}
	if res.Workers != 4 {
		t.Fatalf("workers = %d", res.Workers)
	}
}

func TestDisconnectedGraph(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddUndirected(0, 1, 5)
	// nodes 2,3 isolated
	g := b.Build()
	res := Run(g, 0, pq.NewGlobalHeap(0), 2)
	if res.Dist[0] != 0 || res.Dist[1] != 5 {
		t.Fatalf("connected distances wrong: %v", res.Dist[:2])
	}
	if res.Dist[2] != graph.Infinity || res.Dist[3] != graph.Infinity {
		t.Fatal("isolated nodes should be unreachable")
	}
}

func BenchmarkSSSPZMSQ(b *testing.B) {
	g := graph.PreferentialAttachment(20000, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, 0, harness.NewZMSQ(coreDefault()), 4)
	}
}

// losingQueue is a strict heap that loses its second insert.
type losingQueue struct {
	*pq.GlobalHeap
	inserts atomic.Int64
}

func (q *losingQueue) Insert(key uint64) {
	if q.inserts.Add(1) != 2 {
		q.GlobalHeap.Insert(key)
	}
}

// TestRunStallsOnLostTask: a queue that loses a task leaves it pending
// forever; Run gives up within seconds with ErrStalled instead of
// spinning on the empty queue, on one worker and on several.
func TestRunStallsOnLostTask(t *testing.T) {
	defer func(d time.Duration) { stallAfter = d }(stallAfter)
	stallAfter = 200 * time.Millisecond
	g := graph.Politician(1)
	for _, workers := range []int{1, 4} {
		start := time.Now()
		res := Run(g, 0, &losingQueue{GlobalHeap: pq.NewGlobalHeap(0)}, workers)
		if !errors.Is(res.Err, ErrStalled) {
			t.Fatalf("%d workers: Err = %v, want ErrStalled", workers, res.Err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("%d workers: gave up after %v", workers, d)
		}
	}
	if res := Run(g, 0, pq.NewGlobalHeap(0), 4); res.Err != nil {
		t.Fatalf("a queue that loses nothing: Err = %v", res.Err)
	}
}
