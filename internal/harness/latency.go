package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/pq"
	"repro/internal/xrand"
)

// LatencyResult reports per-operation latency distributions for one
// workload cell. The paper reasons about operation latency qualitatively
// (e.g. §4.5.1 credits the array variant's low single-thread latency;
// §4.2 notes small targetLen raises latency for both operations); this
// runner makes those claims measurable.
type LatencyResult struct {
	Spec    ThroughputSpec
	Queue   string
	Insert  Latency
	Extract Latency
}

// Latency summarizes a run's raw latency samples exactly: every sample is
// kept, so the percentiles are order statistics, not bucket bounds.
type Latency struct {
	Count int
	// Mean, P50 and P99 are in nanoseconds.
	Mean, P50, P99 float64
}

// summarize reports the exact mean, median and 99th percentile of
// samples, each a latency in nanoseconds.
func summarize(samples []float64) Latency {
	if len(samples) == 0 {
		return Latency{}
	}
	return Latency{
		Count: len(samples),
		Mean:  metrics.Summarize(samples).Mean,
		P50:   metrics.Percentile(samples, 50),
		P99:   metrics.Percentile(samples, 99),
	}
}

// String formats the summary as "mean=… p50=… p99=…" in nanoseconds.
func (l Latency) String() string {
	return fmt.Sprintf("mean=%.0fns p50=%.0fns p99=%.0fns", l.Mean, l.P50, l.P99)
}

// String formats the result as an experiment row.
func (r LatencyResult) String() string {
	return fmt.Sprintf("%-14s threads=%-3d insert{%v} extract{%v}",
		r.Queue, r.Spec.Threads, r.Insert, r.Extract)
}

// RunOpLatency runs the spec's operation mix while timing every individual
// operation. Each worker appends to its own sample slices, sized to its
// operation count before the clock starts, so recording never allocates
// and never serializes workers.
func RunOpLatency(mk QueueMaker, spec ThroughputSpec) LatencyResult {
	q := mk(spec.Threads)
	name := pq.NameOf(q, "queue")

	prefill := xrand.New(spec.Seed ^ 0xfeed)
	for i := 0; i < spec.Prefill; i++ {
		q.Insert(spec.Keys.Draw(prefill))
	}

	perWorker := spec.TotalOps / spec.Threads
	insertNs := make([][]float64, spec.Threads)
	extractNs := make([][]float64, spec.Threads)
	var start, stop sync.WaitGroup
	start.Add(1)
	stop.Add(spec.Threads)
	for w := 0; w < spec.Threads; w++ {
		insertNs[w] = make([]float64, 0, perWorker)
		extractNs[w] = make([]float64, 0, perWorker)
		go func(w int) {
			defer stop.Done()
			r := xrand.New(spec.Seed + uint64(w)*0x9e3779b97f4a7c15)
			ins, ext := insertNs[w], extractNs[w]
			start.Wait()
			for i := 0; i < perWorker; i++ {
				if spec.InsertPct.IsInsert(r) {
					k := spec.Keys.Draw(r)
					t0 := time.Now()
					q.Insert(k)
					ins = append(ins, float64(time.Since(t0)))
				} else {
					t0 := time.Now()
					q.ExtractMax()
					ext = append(ext, float64(time.Since(t0)))
				}
			}
			insertNs[w], extractNs[w] = ins, ext
		}(w)
	}
	start.Done()
	stop.Wait()

	var insAll, extAll []float64
	for w := 0; w < spec.Threads; w++ {
		insAll = append(insAll, insertNs[w]...)
		extAll = append(extAll, extractNs[w]...)
	}
	return LatencyResult{
		Spec:    spec,
		Queue:   name,
		Insert:  summarize(insAll),
		Extract: summarize(extAll),
	}
}
