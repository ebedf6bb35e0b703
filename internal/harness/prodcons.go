package harness

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pq"
)

// HandoffSpec describes a producer/consumer experiment (Figures 4 and 6):
// dedicated producers insert TotalItems elements into an initially empty
// queue; dedicated consumers extract them all.
type HandoffSpec struct {
	Producers  int
	Consumers  int
	TotalItems int
	Seed       uint64
}

// HandoffResult is one measured cell.
type HandoffResult struct {
	Spec    HandoffSpec
	Queue   string
	Elapsed time.Duration
	// Latency is the insert-to-extract handoff time of every item.
	Latency Latency
	// CPUSeconds is the Go-runtime user+GC CPU consumed during the run —
	// the quantity Figure 4b compares (spinning consumers burn CPU
	// proportional to their count; blocked consumers do not).
	CPUSeconds float64
}

// PerHandoff is the elapsed time per handoff in nanoseconds (Figure 4a's
// y-axis).
func (r HandoffResult) PerHandoff() float64 {
	return float64(r.Elapsed.Nanoseconds()) / float64(max(r.Spec.TotalItems, 1))
}

// String formats the result as an experiment table row.
func (r HandoffResult) String() string {
	return fmt.Sprintf("%-14s prod=%-3d cons=%-3d elapsed=%-12v latency{%v} cpu=%.2fs",
		r.Queue, r.Spec.Producers, r.Spec.Consumers, r.Elapsed, r.Latency, r.CPUSeconds)
}

func cpuSeconds() float64 {
	runtime.GC() // CPU-class metrics are refreshed on GC
	samples := []metrics.Sample{
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	total := 0.0
	for _, s := range samples {
		if s.Value.Kind() == metrics.KindFloat64 {
			total += s.Value.Float64()
		}
	}
	return total
}

// RunHandoff runs the Figures 4 and 6 experiment: transfer TotalItems
// through a fresh queue from mk with dedicated producers and consumers.
// Consumers call ExtractMax, so a BlockingZMSQ sleeps on the futex ring
// (Figure 4's blocking mode) and every other queue spins (Figure 6
// disables blocking for cross-queue fairness — SprayList cannot block).
// The consumer that takes the last item closes a pq.Closer queue, which
// releases blocked siblings.
func RunHandoff(mk QueueMaker, spec HandoffSpec) HandoffResult {
	q := mk(spec.Producers + spec.Consumers)
	total := int64(spec.TotalItems)
	// One slot per item, written by the consumer whose consumed.Add took
	// that index: the only shared write a handoff adds to the measurement.
	latNs := make([]float64, total)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	cpuBefore := cpuSeconds()
	begin := time.Now()

	for p := 0; p < spec.Producers; p++ {
		// The first TotalItems%Producers producers take one extra item, so
		// exactly TotalItems move.
		n := spec.TotalItems / spec.Producers
		if p < spec.TotalItems%spec.Producers {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// The key is the insertion timestamp, so later items have
				// higher priority (a freshness-priority workload; near-empty
				// queues make the choice immaterial).
				q.Insert(uint64(time.Since(begin).Nanoseconds()))
			}
		}()
	}
	for c := 0; c < spec.Consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for consumed.Load() < total {
				ts, ok := q.ExtractMax()
				if !ok {
					// Empty or spuriously failed (SprayList; the paper
					// highlights that its consumers need multiple calls per
					// element, §4.5.2), or closed: the loop test decides.
					continue
				}
				lat := time.Since(begin).Nanoseconds() - int64(ts)
				i := consumed.Add(1) - 1
				latNs[i] = float64(lat)
				if i == total-1 {
					if cl, ok := q.(pq.Closer); ok {
						cl.Close()
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)

	return HandoffResult{
		Spec:       spec,
		Queue:      pq.NameOf(q, "queue"),
		Elapsed:    elapsed,
		Latency:    summarize(latNs),
		CPUSeconds: cpuSeconds() - cpuBefore,
	}
}
