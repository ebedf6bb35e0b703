// Package sssp implements the concurrent single-source shortest path
// harness of §4.6/§4.7: a label-correcting parallel Dijkstra driven by any
// (possibly relaxed) concurrent priority queue. Workers repeatedly extract
// the nearest-looking task, skip it if it is stale, and relax out-edges
// with CAS-min distance updates. A relaxed queue returns tasks slightly out
// of order; the algorithm stays correct (distances only ever decrease to
// their true values) but pays for relaxation with wasted re-expansions —
// the exact trade-off the paper's SSSP experiments measure.
package sssp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/pq"
)

// EncodeTask packs (dist, node) into a priority key for a max-queue:
// smaller distances must come out first, so the distance is bitwise
// inverted in the high 32 bits. Distances are capped at 2^32-2; the graphs
// in this repository stay far below that.
func EncodeTask(dist uint64, node uint32) uint64 {
	if dist > 0xfffffffe {
		dist = 0xfffffffe
	}
	return ^dist<<32 | uint64(node)
}

// DecodeTask unpacks a key produced by EncodeTask.
func DecodeTask(key uint64) (dist uint64, node uint32) {
	return ^(key >> 32) & 0xffffffff, uint32(key)
}

// Result carries the distances and the work accounting for one run.
type Result struct {
	Dist      []uint64
	Elapsed   time.Duration
	Processed int64 // tasks extracted and expanded
	Stale     int64 // tasks extracted but already superseded (wasted work)
	Updates   int64 // successful distance improvements
	Workers   int
	// Err is ErrStalled when the run gave up on a queue that lost a task;
	// Dist is then incomplete.
	Err error
}

// ErrStalled is a run whose queue reported empty, with tasks still
// pending, while no worker extracted anything for stallAfter: the queue
// lost a task, and waiting for it would never end.
var ErrStalled = errors.New("sssp: queue reports empty with tasks pending")

// stallAfter is how long Run waits on an empty queue that should hold a
// task before it gives up. A task is always visible to some extraction
// once its insert returns, so the wait only has to outlast a worker
// expanding one node while the queue is empty.
var stallAfter = 2 * time.Second

// progress is a worker's count of extractions, on a cache line of its own.
type progress struct {
	n atomic.Int64
	_ [56]byte
}

// WastedFraction is the share of extracted tasks that were stale.
func (r Result) WastedFraction() float64 {
	total := r.Processed + r.Stale
	if total == 0 {
		return 0
	}
	return float64(r.Stale) / float64(total)
}

// Run computes shortest paths from src over q with the given number of
// worker goroutines. q must be empty; it is drained (terminated) when Run
// returns. Any pq.Queue works: strict queues yield zero stale extractions
// on one worker; relaxed queues trade stale work for extraction
// scalability. A queue that loses a task would leave the workers
// waiting for it forever; Run notices the stall and returns ErrStalled
// in Result.Err instead.
func Run(g *graph.Graph, src uint32, q pq.Queue, workers int) Result {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumNodes()
	dist := make([]atomic.Uint64, n)
	for i := range dist {
		dist[i].Store(graph.Infinity)
	}
	dist[src].Store(0)

	// pending counts tasks that have been inserted but whose processing has
	// not finished. A worker decrements only after finishing all inserts a
	// task triggers, so pending == 0 with an empty queue means termination.
	var pending atomic.Int64
	pending.Add(1)
	q.Insert(EncodeTask(0, src))

	var processed, stale, updates atomic.Int64
	var stalled atomic.Bool
	extracted := make([]progress, workers)
	// moved sums every worker's extractions.
	moved := func() (n int64) {
		for i := range extracted {
			n += extracted[i].n.Load()
		}
		return n
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var localProcessed, localStale, localUpdates int64
			idleSpins := 0
			var idleSince time.Time
			var got, seen int64
			for {
				key, ok := q.ExtractMax()
				if !ok {
					if pending.Load() == 0 || stalled.Load() {
						break
					}
					// Relaxed queues may fail spuriously (SprayList) or
					// transiently; yield and retry while work remains, as
					// long as some worker still extracts.
					idleSpins++
					if idleSpins%64 == 0 {
						if n := moved(); idleSpins == 64 || n != seen {
							idleSince, seen = time.Now(), n
						} else if time.Since(idleSince) > stallAfter {
							stalled.Store(true)
							break
						}
						runtime.Gosched()
					}
					continue
				}
				idleSpins = 0
				got++
				extracted[w].n.Store(got)
				d, u := DecodeTask(key)
				if d > dist[u].Load() {
					localStale++
					pending.Add(-1)
					continue
				}
				localProcessed++
				targets, weights := g.Neighbors(u)
				for i, v := range targets {
					nd := d + uint64(weights[i])
					for {
						cur := dist[v].Load()
						if nd >= cur {
							break
						}
						if dist[v].CompareAndSwap(cur, nd) {
							localUpdates++
							pending.Add(1)
							q.Insert(EncodeTask(nd, v))
							break
						}
					}
				}
				pending.Add(-1)
			}
			processed.Add(localProcessed)
			stale.Add(localStale)
			updates.Add(localUpdates)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := make([]uint64, n)
	for i := range out {
		out[i] = dist[i].Load()
	}
	res := Result{
		Dist:      out,
		Elapsed:   elapsed,
		Processed: processed.Load(),
		Stale:     stale.Load(),
		Updates:   updates.Load(),
		Workers:   workers,
	}
	if stalled.Load() {
		res.Err = fmt.Errorf("%w: %d tasks pending, none extracted for %v", ErrStalled, pending.Load(), stallAfter)
	}
	return res
}
