package harness

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/pq"
	"repro/internal/quality"
	"repro/internal/xrand"
)

// AccuracySpec describes one cell of Table 1: prefill a queue with unique
// random keys, run a fixed number of extractions, and count how many of the
// returned keys rank within the top-k of the original contents, where k is
// the extraction count itself. The same pass feeds an order-statistics
// tracker, so every cell also carries the full rank-error distribution.
type AccuracySpec struct {
	// QueueSize is the prefill (1K and 64K in the paper).
	QueueSize int
	// Extracts is the number of ExtractMax calls (10%/50% of 1K; 0.1%, 1%,
	// 10% of 64K in the paper).
	Extracts int
	// Seed makes runs reproducible.
	Seed uint64
}

// AccuracyResult is one measured cell.
type AccuracyResult struct {
	Spec  AccuracySpec
	Queue string
	// Hits is how many extracted keys were within the top Spec.Extracts
	// ranks of the prefilled contents.
	Hits int
	// Failures counts extractions that returned ok=false and were retried.
	Failures int
	// Rank is the rank-error distribution of the extraction sequence: each
	// extracted key's rank among the keys present at that moment (a strict
	// superset of the thresholded hit rate; internal/quality).
	Rank quality.RankSummary
	// Metrics is the queue's instrumentation snapshot taken after the run,
	// when available (see SnapshotOf); nil otherwise.
	Metrics *core.MetricsSnapshot `json:",omitempty"`
}

// HitRate is the fraction of extractions that met the rank threshold —
// the percentage Table 1 reports.
func (r AccuracyResult) HitRate() float64 {
	if r.Spec.Extracts == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Spec.Extracts)
}

// String formats the result as a Table 1 row fragment.
func (r AccuracyResult) String() string {
	return fmt.Sprintf("%-14s size=%-6d extracts=%-5d hits=%-5d rate=%.1f%%",
		r.Queue, r.Spec.QueueSize, r.Spec.Extracts, r.Hits, 100*r.HitRate())
}

// RunAccuracy executes one Table 1 cell against a fresh queue from mk. The
// measurement is single-threaded, as in the paper: accuracy is a property
// of the structure's relaxation, not of scheduling (for SprayList the
// relaxation itself depends on the configured thread count, which mk binds).
func RunAccuracy(mk QueueMaker, threads int, spec AccuracySpec) AccuracyResult {
	q := mk(threads)
	r := xrand.New(spec.Seed)

	// Unique random keys (Table 1: "randomly generated keys without
	// duplicates").
	keys := make([]uint64, 0, spec.QueueSize)
	seen := make(map[uint64]bool, spec.QueueSize)
	for len(keys) < spec.QueueSize {
		k := r.Uint64() >> 1
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	// Not spec.Seed: the keys come from that stream, and a treap whose
	// priorities track its keys is a linked list.
	tr := quality.NewTracker(^spec.Seed)
	for _, k := range keys {
		q.Insert(k)
		tr.Insert(k)
	}

	// The rank threshold: the Extracts-th largest key.
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	threshold := sorted[spec.Extracts-1]

	res := AccuracyResult{Spec: spec, Queue: pq.NameOf(q, "queue")}
	done := 0
	for done < spec.Extracts {
		k, ok := q.ExtractMax()
		if !ok {
			// SprayList can fail on a nonempty queue; retry (bounded by
			// construction since the queue holds enough elements).
			res.Failures++
			if res.Failures > 1000*spec.Extracts {
				break
			}
			continue
		}
		if k >= threshold {
			res.Hits++
		}
		tr.ObserveExtract(k)
		done++
	}
	res.Rank = tr.Summary()
	res.Metrics = SnapshotOf(q)
	return res
}
