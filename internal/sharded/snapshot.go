package sharded

import (
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Snapshot is a merged, point-in-time view of the sharded queue: every
// shard's core.MetricsSnapshot folded into one, the per-shard views, and
// the sharded front-end's own telemetry (sweep/steal counters and the
// shard-occupancy imbalance gauges).
type Snapshot struct {
	// Shards is the shard count S.
	Shards int `json:"shards"`

	// Merged is the element-wise sum of the per-shard snapshots (LeafLevel
	// takes the deepest shard).
	Merged core.MetricsSnapshot `json:"merged"`

	// PerShard holds each shard's own snapshot, indexed by shard.
	PerShard []core.MetricsSnapshot `json:"per_shard"`

	// FullSweeps counts extractions upgraded to a full argmax peek sweep;
	// StealSweeps counts shard-miss sweeps (the chosen shard was empty);
	// Steals counts elements obtained from a non-chosen shard by such a
	// sweep.
	FullSweeps  uint64 `json:"full_sweeps"`
	StealSweeps uint64 `json:"steal_sweeps"`
	Steals      uint64 `json:"steals"`

	// ActiveShards always equals Shards; kept because bench/ladder.go reads it.
	ActiveShards int `json:"active_shards"`

	// ShardLenMin/Max are the smallest and largest per-shard element
	// counts at snapshot time; Imbalance is (max-min)/mean (0 for an empty
	// or perfectly balanced queue). Persistently high imbalance means the
	// insert affinity is outrunning extraction-side rebalancing.
	ShardLenMin int     `json:"shard_len_min"`
	ShardLenMax int     `json:"shard_len_max"`
	Imbalance   float64 `json:"imbalance"`
}

// Snapshot merges every shard's metrics with the sharded-level telemetry.
// Like core.Queue.Snapshot it is meant for scrapes and post-run reporting,
// not per-operation calls.
func (q *Queue[V]) Snapshot() Snapshot {
	s := Snapshot{
		Shards:       len(q.shards),
		PerShard:     make([]core.MetricsSnapshot, len(q.shards)),
		FullSweeps:   q.fullSweeps.Load(),
		StealSweeps:  q.stealSweeps.Load(),
		Steals:       q.steals.Load(),
		ActiveShards: len(q.shards),
	}
	total := 0
	for i := range q.shards {
		ps := q.shards[i].q.Snapshot()
		s.PerShard[i] = ps
		s.Merged = s.Merged.Merge(ps)
		n := ps.Len
		total += n
		if i == 0 || n < s.ShardLenMin {
			s.ShardLenMin = n
		}
		if n > s.ShardLenMax {
			s.ShardLenMax = n
		}
	}
	if total > 0 {
		mean := float64(total) / float64(len(q.shards))
		s.Imbalance = float64(s.ShardLenMax-s.ShardLenMin) / mean
	}
	return s
}

// WritePrometheus renders the merged snapshot plus the sharded-level
// gauges in Prometheus text exposition format.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	if err := s.Merged.WritePrometheus(w); err != nil {
		return err
	}
	p := metrics.NewPromWriter(w)
	p.Gauge("zmsq_sharded_shards", "shard count", float64(s.Shards))
	p.Counter("zmsq_sharded_full_sweeps_total", "extractions upgraded to a full argmax peek sweep", s.FullSweeps)
	p.Counter("zmsq_sharded_steal_sweeps_total", "shard-miss stealing sweeps", s.StealSweeps)
	p.Counter("zmsq_sharded_steals_total", "elements stolen from a non-chosen shard", s.Steals)
	p.Gauge("zmsq_sharded_shard_len_min", "smallest per-shard element count", float64(s.ShardLenMin))
	p.Gauge("zmsq_sharded_shard_len_max", "largest per-shard element count", float64(s.ShardLenMax))
	p.Gauge("zmsq_sharded_imbalance", "(max-min)/mean shard occupancy", s.Imbalance)
	p.Gauge("zmsq_sharded_active_shards", "always equal to zmsq_sharded_shards", float64(s.ActiveShards))
	return p.Err()
}
