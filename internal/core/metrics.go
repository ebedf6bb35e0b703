package core

import (
	"io"

	"repro/internal/metrics"
)

// Metrics is the queue's hot-path instrumentation hook. Attach one via
// Config.Metrics to have every insert, extraction, refill, repair and
// allocator decision counted; leave it nil (the default) and every
// instrumentation site compiles down to a single predictable nil-check
// branch — the same gating discipline as Config.Faults.
//
// All fields are sharded, cache-line-padded and allocation-free on the
// write path (see internal/metrics): each pooled operation context hashes
// to one shard for its lifetime, so a goroutine's updates stay on one
// uncontended cache line. The zero value is ready to use; one Metrics must
// observe at most one queue (counters are not tagged by queue).
//
// Read it through Queue.Snapshot, which merges shards and adds the
// instantaneous gauges (pool occupancy, queue length, tree depth).
type Metrics struct {
	// Insert outcomes. Each successful Insert/InsertBatch element bumps
	// exactly one of the first three; Retries counts failed placement
	// attempts (lock or validation failures) that forced a restart along a
	// new random path.
	InsertRegular      metrics.Counter
	InsertForced       metrics.Counter
	InsertRootFallback metrics.Counter
	InsertRetries      metrics.Counter

	// TryLockFail counts insert-side trylock failures (lockNode), the
	// paper's §4.1 contention signal. Extraction-side trylock losses are
	// folded into ExtractRaced.
	TryLockFail metrics.Counter

	// Extraction outcomes. Each successfully extracted element bumps
	// exactly one of PoolHit (claimed from the §3.3 extraction pool) or
	// RootElems (taken under the root lock — the tree-descent path).
	// ExtractEmpty counts attempts that observed a truly empty queue;
	// ExtractRaced counts retries (trylock lost or a concurrent refill
	// landed between the pool miss and the root lock).
	ExtractPoolHit   metrics.Counter
	ExtractRootElems metrics.Counter
	ExtractEmpty     metrics.Counter
	ExtractRaced     metrics.Counter

	// PoolRefills counts pool refill cycles; PoolRefillSize is the
	// histogram of elements moved per refill (bounded by Batch).
	// BatchGrabSize is the histogram of elements moved per batch root grab
	// (ExtractBatch's direct path, bounded by Batch+1).
	PoolRefills    metrics.Counter
	PoolRefillSize metrics.Histogram
	BatchGrabSize  metrics.Histogram

	// SwapDownMoves counts set exchanges performed by the downward
	// invariant repair (§3.4) — the write-side cost of extraction.
	SwapDownMoves metrics.Counter

	// HazardScans counts hazard-pointer reclamation scans (§3.5): 0 in the
	// product, whose domain carries no Reclaimer; a hazard-gated domain
	// counts its scans here when it is built. NodeCacheHit/Miss classify run buffer
	// requests: a hit recycles a buffer through the context's free stack
	// or the domain freelist behind it; a miss allocates fresh. Steady
	// state should be ~100% hits.
	HazardScans   metrics.Counter
	NodeCacheHit  metrics.Counter
	NodeCacheMiss metrics.Counter

	// RankError is a sampled estimate of live extraction quality: for one
	// in rankSampleEvery extractions, the element's rank-from-top at its
	// last refill instant (0 = it was the true maximum). Pool claims
	// record their refill rank; direct root grabs record rank 0. It is an
	// instantaneous lower-bound estimate, not the offline recorder's exact
	// rank — see DESIGN.md "Observability".
	RankError metrics.Histogram
}

// rankSampleEvery is the sampling stride of the RankError histogram: one
// in this many extractions records a sample. A power of two keeps the
// sample test a mask on a per-context counter.
const rankSampleEvery = 8

// NewMetrics returns a ready-to-attach Metrics. (The zero value works too;
// the constructor exists so callers outside the package don't need to
// spell the struct.)
func NewMetrics() *Metrics { return &Metrics{} }

// MetricsSnapshot is a merged, point-in-time view of a queue's Metrics plus
// the queue's instantaneous gauges. Produce one with Queue.Snapshot; it is
// plain data, safe to serialize (JSON tags) or format for Prometheus with
// WritePrometheus.
type MetricsSnapshot struct {
	// Enabled is false when the queue was built without Config.Metrics;
	// all counter fields are then zero and only the gauges are filled.
	Enabled bool `json:"enabled"`

	InsertRegular      uint64 `json:"insert_regular"`
	InsertForced       uint64 `json:"insert_forced"`
	InsertRootFallback uint64 `json:"insert_root_fallback"`
	InsertRetries      uint64 `json:"insert_retries"`
	TryLockFail        uint64 `json:"trylock_fail"`

	ExtractPoolHit   uint64 `json:"extract_pool_hit"`
	ExtractRootElems uint64 `json:"extract_root_elems"`
	ExtractEmpty     uint64 `json:"extract_empty"`
	ExtractRaced     uint64 `json:"extract_raced"`

	PoolRefills   uint64 `json:"pool_refills"`
	SwapDownMoves uint64 `json:"swapdown_moves"`
	HazardScans   uint64 `json:"hazard_scans"`
	NodeCacheHit  uint64 `json:"node_cache_hit"`
	NodeCacheMiss uint64 `json:"node_cache_miss"`

	// Gauges sampled at snapshot time.
	PoolOccupancy int64 `json:"pool_occupancy"`
	PoolCapacity  int   `json:"pool_capacity"`
	Len           int   `json:"len"`
	LeafLevel     int   `json:"leaf_level"`

	PoolRefillSize metrics.HistogramSnapshot `json:"pool_refill_size"`
	BatchGrabSize  metrics.HistogramSnapshot `json:"batch_grab_size"`
	RankError      metrics.HistogramSnapshot `json:"rank_error"`
}

// Merge returns the element-wise combination of two snapshots: counters
// and histograms sum, occupancy/length gauges add, and LeafLevel takes the
// deeper tree. The sharded front-end folds per-shard snapshots into one
// queue-level view with it.
func (s MetricsSnapshot) Merge(o MetricsSnapshot) MetricsSnapshot {
	s.Enabled = s.Enabled || o.Enabled
	s.InsertRegular += o.InsertRegular
	s.InsertForced += o.InsertForced
	s.InsertRootFallback += o.InsertRootFallback
	s.InsertRetries += o.InsertRetries
	s.TryLockFail += o.TryLockFail
	s.ExtractPoolHit += o.ExtractPoolHit
	s.ExtractRootElems += o.ExtractRootElems
	s.ExtractEmpty += o.ExtractEmpty
	s.ExtractRaced += o.ExtractRaced
	s.PoolRefills += o.PoolRefills
	s.SwapDownMoves += o.SwapDownMoves
	s.HazardScans += o.HazardScans
	s.NodeCacheHit += o.NodeCacheHit
	s.NodeCacheMiss += o.NodeCacheMiss
	s.PoolOccupancy += o.PoolOccupancy
	s.PoolCapacity += o.PoolCapacity
	s.Len += o.Len
	if o.LeafLevel > s.LeafLevel {
		s.LeafLevel = o.LeafLevel
	}
	s.PoolRefillSize = s.PoolRefillSize.Merge(o.PoolRefillSize)
	s.BatchGrabSize = s.BatchGrabSize.Merge(o.BatchGrabSize)
	s.RankError = s.RankError.Merge(o.RankError)
	return s
}

// InsertsTotal is the number of successfully inserted elements.
func (s MetricsSnapshot) InsertsTotal() uint64 {
	return s.InsertRegular + s.InsertForced + s.InsertRootFallback
}

// ExtractsTotal is the number of successfully extracted elements.
func (s MetricsSnapshot) ExtractsTotal() uint64 {
	return s.ExtractPoolHit + s.ExtractRootElems
}

// NodeCacheHitRate is the fraction of run buffer requests served by
// recycling (0 when no allocations were recorded).
func (s MetricsSnapshot) NodeCacheHitRate() float64 {
	total := s.NodeCacheHit + s.NodeCacheMiss
	if total == 0 {
		return 0
	}
	return float64(s.NodeCacheHit) / float64(total)
}

// Snapshot merges the queue's metric shards with its instantaneous gauges.
// It is cheap (O(shards), a few hundred atomic loads) but not free — meant
// for scrapes and post-run reporting, not per-operation calls. Without
// Config.Metrics it still fills the gauges and reports Enabled=false.
func (q *Queue[V]) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		PoolCapacity: q.batch,
		Len:          q.Len(),
		LeafLevel:    int(q.leafLevel.Load()),
	}
	s.PoolOccupancy = q.PoolOccupancy()
	m := q.met
	if m == nil {
		return s
	}
	s.Enabled = true
	s.InsertRegular = m.InsertRegular.Value()
	s.InsertForced = m.InsertForced.Value()
	s.InsertRootFallback = m.InsertRootFallback.Value()
	s.InsertRetries = m.InsertRetries.Value()
	s.TryLockFail = m.TryLockFail.Value()
	s.ExtractPoolHit = m.ExtractPoolHit.Value()
	s.ExtractRootElems = m.ExtractRootElems.Value()
	s.ExtractEmpty = m.ExtractEmpty.Value()
	s.ExtractRaced = m.ExtractRaced.Value()
	s.PoolRefills = m.PoolRefills.Value()
	s.SwapDownMoves = m.SwapDownMoves.Value()
	s.HazardScans = m.HazardScans.Value()
	s.NodeCacheHit = m.NodeCacheHit.Value()
	s.NodeCacheMiss = m.NodeCacheMiss.Value()
	s.PoolRefillSize = m.PoolRefillSize.Snapshot()
	s.BatchGrabSize = m.BatchGrabSize.Snapshot()
	s.RankError = m.RankError.Snapshot()
	return s
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format under the zmsq_ namespace, returning the first write error.
func (s MetricsSnapshot) WritePrometheus(w io.Writer) error {
	p := metrics.NewPromWriter(w)
	p.Counter("zmsq_insert_regular_total", "successful regular (path) inserts", s.InsertRegular)
	p.Counter("zmsq_insert_forced_total", "successful forced inserts into under-full deep leaves", s.InsertForced)
	p.Counter("zmsq_insert_root_fallback_total", "depth-cap fallback inserts into the root", s.InsertRootFallback)
	p.Counter("zmsq_insert_retries_total", "failed insert placement attempts that restarted", s.InsertRetries)
	p.Counter("zmsq_trylock_fail_total", "insert-side trylock acquisition failures", s.TryLockFail)
	p.Counter("zmsq_extract_pool_hit_total", "extractions served by the extraction pool", s.ExtractPoolHit)
	p.Counter("zmsq_extract_root_elems_total", "elements extracted directly under the root lock", s.ExtractRootElems)
	p.Counter("zmsq_extract_empty_total", "extraction attempts observing a truly empty queue", s.ExtractEmpty)
	p.Counter("zmsq_extract_raced_total", "extraction retries after losing a race", s.ExtractRaced)
	p.Counter("zmsq_pool_refills_total", "extraction pool refill cycles", s.PoolRefills)
	p.Counter("zmsq_swapdown_moves_total", "set exchanges during downward invariant repair", s.SwapDownMoves)
	p.Counter("zmsq_hazard_scans_total", "hazard pointer reclamation scans", s.HazardScans)
	p.Counter("zmsq_node_cache_hit_total", "run buffer requests served by recycling", s.NodeCacheHit)
	p.Counter("zmsq_node_cache_miss_total", "run buffer requests that hit the heap", s.NodeCacheMiss)
	p.Gauge("zmsq_pool_occupancy", "unclaimed extraction pool entries", float64(s.PoolOccupancy))
	p.Gauge("zmsq_pool_capacity", "extraction pool capacity (Config.Batch)", float64(s.PoolCapacity))
	p.Gauge("zmsq_len", "snapshot element count", float64(s.Len))
	p.Gauge("zmsq_leaf_level", "deepest allocated tree level", float64(s.LeafLevel))
	p.Histogram("zmsq_pool_refill_size", "elements moved per pool refill", s.PoolRefillSize)
	p.Histogram("zmsq_batch_grab_size", "elements moved per batch root grab", s.BatchGrabSize)
	p.Histogram("zmsq_rank_error_sample", "sampled rank-from-top estimate of extracted elements", s.RankError)
	return p.Err()
}
