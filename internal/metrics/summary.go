package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics over a complete set of samples: the
// exact, read-side counterpart of Histogram for measurements small enough
// to keep every value (tree set sizes, rank errors, handoff latencies).
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes summary statistics over xs. An empty input yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	// Population standard deviation: the callers summarize complete
	// measurement sets, not samples of a larger population.
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	return s
}

// String formats the summary for experiment logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f stddev=%.3f min=%.3f max=%.3f",
		s.Count, s.Mean, s.StdDev, s.Min, s.Max)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on an empty input or an
// out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("metrics: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic("metrics: percentile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
