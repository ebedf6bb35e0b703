// Package metrics provides the low-overhead instrumentation primitives the
// ZMSQ hot paths are threaded with: sharded counters, gauges and log2
// histograms, all allocation-free on the write path.
//
// Design (mirroring the lnode-cache discipline in internal/core): each
// metric is split into a fixed number of cache-line-padded shards. Writers
// pick a shard — the queue hashes each pooled operation context to one
// shard for its lifetime, so a goroutine's updates land on one uncontended,
// cache-hot line — and perform a single atomic add. Readers merge all
// shards on demand; reads are O(shards) and are expected to be rare
// (scrapes, snapshots), so no write-side cost is paid for read coherence.
// Merged reads are not an atomic cut across shards; under concurrency they
// are a best-effort snapshot, exactly like the queue's Len().
//
// Everything here is safe for concurrent use. The zero value of every
// metric type is ready to use.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync/atomic"
)

// ShardCount is the number of independent cells per sharded metric. It is
// a power of two so shard selection is a mask, and large enough that the
// thread counts the paper evaluates rarely collide on a cell.
const ShardCount = 16

const shardMask = ShardCount - 1

// cell is one shard of a counter, padded so adjacent shards in the array
// never share a cache line.
type cell struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a sharded monotonic counter. The zero value is ready to use.
type Counter struct {
	cells [ShardCount]cell
}

// Inc adds one to the shard selected by shard (any value; it is masked).
func (c *Counter) Inc(shard uint32) {
	c.cells[shard&shardMask].n.Add(1)
}

// Add adds d to the shard selected by shard.
func (c *Counter) Add(shard uint32, d uint64) {
	c.cells[shard&shardMask].n.Add(d)
}

// Value merges all shards. Under concurrent writers the result is a
// best-effort snapshot; it is exact when writers are quiescent.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// HistBuckets is the number of buckets in a Histogram: bucket 0 holds the
// value 0 and bucket b >= 1 holds values in [2^(b-1), 2^b). Values at or
// above 2^(HistBuckets-2) clamp into the last bucket. 26 buckets cover
// 0..2^24-1 exactly — far beyond any batch size, rank estimate or retry
// count the queue records.
const HistBuckets = 26

// histShard is one shard of a histogram. The bucket array spans several
// cache lines; the trailing pad keeps the next shard's first buckets off
// this shard's last line.
type histShard struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	_       [64 - (HistBuckets*8+16)%64]byte
}

// Histogram is a sharded log2 histogram of uint64 samples. The zero value
// is ready to use. Observe is two or three atomic adds on one shard — no
// locks, no allocation.
type Histogram struct {
	shards [ShardCount]histShard
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v uint64) int {
	if v == 0 {
		return 0
	}
	b := bits.Len64(v) // v in [2^(b-1), 2^b)
	if b > HistBuckets-1 {
		return HistBuckets - 1
	}
	return b
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// BucketHigh returns the inclusive upper bound of bucket i (MaxUint64 for
// the clamping last bucket).
func BucketHigh(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= HistBuckets-1 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Observe records one sample in the shard selected by shard.
func (h *Histogram) Observe(shard uint32, v uint64) {
	s := &h.shards[shard&shardMask]
	s.buckets[bucketOf(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// Snapshot merges all shards into a read-only snapshot. It allocates (the
// bucket slice) and is meant for scrape/export paths, never hot paths.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var snap HistogramSnapshot
	var merged [HistBuckets]uint64
	for i := range h.shards {
		s := &h.shards[i]
		snap.Count += s.count.Load()
		snap.Sum += s.sum.Load()
		for b := range s.buckets {
			merged[b] += s.buckets[b].Load()
		}
	}
	for b, n := range merged {
		if n == 0 {
			continue
		}
		snap.Buckets = append(snap.Buckets, Bucket{
			Low:   BucketLow(b),
			High:  BucketHigh(b),
			Count: n,
		})
	}
	return snap
}

// Bucket is one nonempty bucket of a histogram snapshot; bounds are
// inclusive.
type Bucket struct {
	Low   uint64 `json:"low"`
	High  uint64 `json:"high"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a merged, immutable view of a Histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the mean recorded sample (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound of
// the bucket containing it; 0 when empty. Bucket granularity bounds the
// error at a factor of two — ample for trend dashboards.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var seen uint64
	for _, b := range s.Buckets {
		if seen+b.Count > target {
			return b.High
		}
		seen += b.Count
	}
	return s.Buckets[len(s.Buckets)-1].High
}

// Merge returns the bucket-aligned combination of s and o. Snapshots taken
// from different Histograms share the same power-of-two bucket boundaries,
// so merging is exact; the sharded front-end uses it to fold per-shard
// queue snapshots into one.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if o.Count == 0 {
		return s
	}
	if s.Count == 0 {
		return o
	}
	byLow := make(map[uint64]Bucket, len(s.Buckets)+len(o.Buckets))
	for _, b := range s.Buckets {
		byLow[b.Low] = b
	}
	for _, b := range o.Buckets {
		if have, ok := byLow[b.Low]; ok {
			have.Count += b.Count
			byLow[b.Low] = have
		} else {
			byLow[b.Low] = b
		}
	}
	out := HistogramSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	out.Buckets = make([]Bucket, 0, len(byLow))
	for _, b := range byLow {
		out.Buckets = append(out.Buckets, b)
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Low < out.Buckets[j].Low })
	return out
}

// PromWriter accumulates Prometheus text-exposition output. Errors are
// sticky: the first write error is retained and later calls are no-ops, so
// call sites can emit a whole family of metrics and check Err once.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer emitting to w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *PromWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter emits one counter sample.
func (p *PromWriter) Counter(name, help string, v uint64) {
	p.header(name, help, "counter")
	p.printf("%s %d\n", name, v)
}

// CounterFloat emits one counter sample of a non-integer quantity, such
// as seconds.
func (p *PromWriter) CounterFloat(name, help string, v float64) {
	p.header(name, help, "counter")
	p.printf("%s %g\n", name, v)
}

// Gauge emits one gauge sample.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.printf("%s %g\n", name, v)
}

// Histogram emits a histogram snapshot in cumulative le-bucket form.
func (p *PromWriter) Histogram(name, help string, s HistogramSnapshot) {
	p.header(name, help, "histogram")
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if b.High == ^uint64(0) {
			break // folded into +Inf below
		}
		p.printf("%s_bucket{le=\"%d\"} %d\n", name, b.High, cum)
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	p.printf("%s_sum %d\n%s_count %d\n", name, s.Sum, name, s.Count)
}
