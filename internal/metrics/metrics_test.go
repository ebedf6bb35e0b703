package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterShardingAndMerge(t *testing.T) {
	var c Counter
	for shard := uint32(0); shard < 3*ShardCount; shard++ {
		c.Inc(shard)
	}
	c.Add(7, 10)
	if got := c.Value(); got != 3*ShardCount+10 {
		t.Fatalf("Value = %d, want %d", got, 3*ShardCount+10)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc(uint32(w))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("Value = %d, want %d", got, workers*perWorker)
	}
}

func TestBucketBoundsRoundTrip(t *testing.T) {
	// Every bucket's bounds must contain exactly the values that map to it.
	for b := 0; b < HistBuckets; b++ {
		lo, hi := BucketLow(b), BucketHigh(b)
		if got := bucketOf(lo); got != b {
			t.Errorf("bucketOf(low %d) = %d, want %d", lo, got, b)
		}
		if got := bucketOf(hi); got != b {
			t.Errorf("bucketOf(high %d) = %d, want %d", hi, got, b)
		}
		if b > 0 && bucketOf(lo-1) == b {
			t.Errorf("bucket %d claims value %d below its lower bound", b, lo-1)
		}
	}
	if got := bucketOf(^uint64(0)); got != HistBuckets-1 {
		t.Errorf("max uint64 lands in bucket %d, want clamp to %d", got, HistBuckets-1)
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	samples := []uint64{0, 1, 1, 2, 3, 4, 100, 1 << 40}
	var sum uint64
	for i, v := range samples {
		h.Observe(uint32(i), v)
		sum += v
	}
	snap := h.Snapshot()
	if snap.Count != uint64(len(samples)) {
		t.Fatalf("Count = %d, want %d", snap.Count, len(samples))
	}
	if snap.Sum != sum {
		t.Fatalf("Sum = %d, want %d", snap.Sum, sum)
	}
	var fromBuckets uint64
	for _, b := range snap.Buckets {
		fromBuckets += b.Count
	}
	if fromBuckets != snap.Count {
		t.Fatalf("bucket counts sum to %d, want %d", fromBuckets, snap.Count)
	}
	if got, want := snap.Mean(), float64(sum)/float64(len(samples)); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := uint64(0); i < 1000; i++ {
		h.Observe(0, i)
	}
	snap := h.Snapshot()
	// Exact values are quantized to bucket upper bounds: the median of
	// 0..999 is 499-ish, whose bucket [256,511] reports 511.
	if got := snap.Quantile(0.5); got < 256 || got > 1023 {
		t.Fatalf("p50 = %d, want within a bucket of ~500", got)
	}
	if got := snap.Quantile(1.0); got < 512 {
		t.Fatalf("p100 = %d, want >= 512", got)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
}

func TestPromWriterOutput(t *testing.T) {
	var h Histogram
	h.Observe(0, 3)
	h.Observe(0, 300)
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("zmsq_test_total", "a counter", 7)
	p.Gauge("zmsq_test_len", "a gauge", 3.5)
	p.Histogram("zmsq_test_hist", "a histogram", h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE zmsq_test_total counter",
		"zmsq_test_total 7",
		"# TYPE zmsq_test_len gauge",
		"zmsq_test_len 3.5",
		"# TYPE zmsq_test_hist histogram",
		`zmsq_test_hist_bucket{le="+Inf"} 2`,
		"zmsq_test_hist_sum 303",
		"zmsq_test_hist_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }

func TestPromWriterStickyError(t *testing.T) {
	p := NewPromWriter(failWriter{})
	p.Counter("x", "h", 1)
	p.Gauge("y", "h", 2)
	if p.Err() == nil {
		t.Fatal("expected sticky error")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		shard := uint32(0)
		for pb.Next() {
			c.Inc(shard)
			shard++
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		for pb.Next() {
			h.Observe(uint32(i), i&1023)
			i++
		}
	})
}
