package stats

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xrand"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Count != 8 {
		t.Fatalf("Count = %d", s.Count)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", s.Mean)
	}
	if !almostEqual(s.StdDev, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Fatal("empty Summary.String()")
	}
}

func TestPercentileKnown(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Fatalf("Percentile of singleton = %v, want 7", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentileOrderedProperty(t *testing.T) {
	r := xrand.New(77)
	f := func(n uint8) bool {
		size := int(n%50) + 2
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = r.Float64() * 1000
		}
		p50 := Percentile(xs, 50)
		p90 := Percentile(xs, 90)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return p50 <= p90 && p50 >= sorted[0] && p90 <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for _, ns := range []uint64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1 << 40} {
		idx := bucketIndex(ns)
		if idx < prev {
			t.Fatalf("bucketIndex not monotonic at %d: %d < %d", ns, idx, prev)
		}
		prev = idx
	}
}

func TestBucketLowInvertsIndex(t *testing.T) {
	for _, ns := range []uint64{0, 1, 5, 15, 16, 33, 100, 12345, 1 << 30} {
		idx := bucketIndex(ns)
		low := bucketLow(idx)
		if low > ns {
			t.Fatalf("bucketLow(%d)=%d exceeds sample %d", idx, low, ns)
		}
		// The bucket width at major m is 2^(m-4); the low bound must be
		// within one bucket width of the sample.
		if idx >= 16 {
			width := uint64(1) << uint(idx/16-4)
			if ns-low >= width {
				t.Fatalf("sample %d maps to bucket low %d, width %d", ns, low, width)
			}
		}
	}
}

func TestLatencyRecorderBasics(t *testing.T) {
	r := NewLatencyRecorder()
	if r.Count() != 0 || r.Mean() != 0 || r.Quantile(0.5) != 0 {
		t.Fatal("fresh recorder not empty")
	}
	for i := 0; i < 1000; i++ {
		r.Record(100 * time.Nanosecond)
	}
	if r.Count() != 1000 {
		t.Fatalf("Count = %d", r.Count())
	}
	if m := r.Mean(); m != 100*time.Nanosecond {
		t.Fatalf("Mean = %v", m)
	}
	q := r.Quantile(0.5)
	if q < 90*time.Nanosecond || q > 110*time.Nanosecond {
		t.Fatalf("Quantile(0.5) = %v, want about 100ns", q)
	}
}

func TestLatencyRecorderQuantileAccuracy(t *testing.T) {
	r := NewLatencyRecorder()
	// Uniform 1..10000 ns.
	for i := 1; i <= 10000; i++ {
		r.Record(time.Duration(i))
	}
	p50 := float64(r.Quantile(0.5))
	if p50 < 4500 || p50 > 5500 {
		t.Fatalf("p50 = %v, want about 5000", p50)
	}
	p99 := float64(r.Quantile(0.99))
	if p99 < 9000 || p99 > 10000 {
		t.Fatalf("p99 = %v, want about 9900", p99)
	}
}

func TestLatencyRecorderNegativeClamped(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(-5 * time.Nanosecond)
	if r.Count() != 1 {
		t.Fatal("negative sample not recorded")
	}
	if r.Quantile(0.5) != 0 {
		t.Fatal("negative sample should clamp to 0")
	}
}

func TestLatencyRecorderConcurrent(t *testing.T) {
	r := NewLatencyRecorder()
	const goroutines = 8
	const per = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(time.Duration(100 + g))
			}
		}(g)
	}
	wg.Wait()
	if r.Count() != goroutines*per {
		t.Fatalf("Count = %d, want %d", r.Count(), goroutines*per)
	}
}

func TestLatencyRecorderMerge(t *testing.T) {
	a, b := NewLatencyRecorder(), NewLatencyRecorder()
	for i := 0; i < 100; i++ {
		a.Record(100 * time.Nanosecond)
		b.Record(200 * time.Nanosecond)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if m := a.Mean(); m != 150*time.Nanosecond {
		t.Fatalf("merged mean = %v, want 150ns", m)
	}
}

func TestLatencyRecorderString(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(time.Microsecond)
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

func BenchmarkRecord(b *testing.B) {
	r := NewLatencyRecorder()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(137 * time.Nanosecond)
		}
	})
}
