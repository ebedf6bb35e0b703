package quality

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// Tracker observes a single-consumer extraction sequence and reports the
// rank-from-top of every extracted key. It generalizes Table 1's
// "within top-k" measurement to full rank-error distributions.
//
// The tracker is synchronized so a multi-producer workload can feed it, but
// rank observations are only meaningful relative to the tracker's own
// serialization of events; the paper's accuracy experiments (and ours) are
// single-threaded, where ranks are exact.
type Tracker struct {
	mu    sync.Mutex
	t     *Treap
	ranks []float64
	// MaxHits counts extractions that returned the exact maximum.
	maxHits int
	// misses counts observed extractions of keys the tracker never saw
	// inserted (harness bugs); exposed via Err in Summary.
	misses int
}

// NewTracker returns an empty tracker.
func NewTracker(seed uint64) *Tracker {
	return &Tracker{t: NewTreap(seed)}
}

// Insert records that key entered the queue.
func (tr *Tracker) Insert(key uint64) {
	tr.mu.Lock()
	tr.t.Insert(key)
	tr.mu.Unlock()
}

// ObserveExtract records that key left the queue and returns its rank from
// the top at that moment (0 = it was the maximum).
func (tr *Tracker) ObserveExtract(key uint64) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rank, ok := tr.t.RankFromTop(key)
	if !ok {
		tr.misses++
		return -1
	}
	tr.t.Delete(key)
	tr.ranks = append(tr.ranks, float64(rank))
	if rank == 0 {
		tr.maxHits++
	}
	return rank
}

// RankSummary aggregates the observed rank errors.
type RankSummary struct {
	Extractions int
	// MaxRate is the fraction of extractions returning the true maximum.
	// ZMSQ guarantees it is at least 1/(batch+1) (§3.7).
	MaxRate float64
	Mean    float64
	P50     float64
	P99     float64
	Worst   float64
	// Misses counts extractions of unknown keys (0 in a correct harness).
	Misses int
}

// Summary computes the aggregate rank statistics.
func (tr *Tracker) Summary() RankSummary {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := RankSummary{Extractions: len(tr.ranks), Misses: tr.misses}
	if len(tr.ranks) == 0 {
		return s
	}
	s.MaxRate = float64(tr.maxHits) / float64(len(tr.ranks))
	sum := metrics.Summarize(tr.ranks)
	s.Mean = sum.Mean
	s.Worst = sum.Max
	s.P50 = metrics.Percentile(tr.ranks, 50)
	s.P99 = metrics.Percentile(tr.ranks, 99)
	return s
}

// String formats the summary as an experiment row.
func (s RankSummary) String() string {
	return fmt.Sprintf("extracts=%d maxRate=%.3f meanRank=%.2f p50=%.0f p99=%.0f worst=%.0f",
		s.Extractions, s.MaxRate, s.Mean, s.P50, s.P99, s.Worst)
}
