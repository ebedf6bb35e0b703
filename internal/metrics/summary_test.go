package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

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
