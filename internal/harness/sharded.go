package harness

import (
	"repro/internal/core"
	"repro/internal/pq"
	"repro/internal/sharded"
)

// Sharded adapts a payload-less sharded.Queue — S ZMSQ shards behind a
// choice-of-two front-end — to the harness's pq.Queue, with the full
// capability set the ZMSQ adapter exposes: Named, Closer, Batcher and
// MetricsSource.
type Sharded struct {
	Q *sharded.Queue[struct{}]
	n string
}

// NewSharded builds a Sharded adapter from cfg. Its display name is the
// registry key "zmsq-sharded" regardless of the shard count; experiment
// cells that sweep shard counts label their rows explicitly.
func NewSharded(cfg sharded.Config) *Sharded {
	return &Sharded{Q: sharded.New[struct{}](cfg), n: "zmsq-sharded"}
}

// Insert implements pq.Queue.
func (s *Sharded) Insert(key uint64) { s.Q.Insert(key, struct{}{}) }

// ExtractMax implements pq.Queue.
func (s *Sharded) ExtractMax() (uint64, bool) {
	k, _, ok := s.Q.TryExtractMax()
	return k, ok
}

// Name implements pq.Named.
func (s *Sharded) Name() string { return s.n }

// Close implements pq.Closer.
func (s *Sharded) Close() { s.Q.Close() }

// InsertBatch implements pq.Batcher.
func (s *Sharded) InsertBatch(keys []uint64) { s.Q.InsertBatch(keys, nil) }

// ExtractBatch implements pq.Batcher.
func (s *Sharded) ExtractBatch(dst []uint64, n int) []uint64 {
	buf := elemBufs.Get().(*[]core.Element[struct{}])
	*buf = s.Q.ExtractBatch((*buf)[:0], n)
	for _, e := range *buf {
		dst = append(dst, e.Key)
	}
	elemBufs.Put(buf)
	return dst
}

// Snapshot implements MetricsSource with the merged cross-shard view, so
// runners and the serving mux treat a sharded queue exactly like a single
// one.
func (s *Sharded) Snapshot() core.MetricsSnapshot { return s.Q.Snapshot().Merged }

var (
	_ pq.Queue      = (*Sharded)(nil)
	_ pq.Named      = (*Sharded)(nil)
	_ pq.Closer     = (*Sharded)(nil)
	_ pq.Batcher    = (*Sharded)(nil)
	_ MetricsSource = (*Sharded)(nil)
)
