package core

import (
	"runtime"
	"testing"

	"repro/internal/xrand"
)

// heapPerElement is the live heap a default queue of resident elements
// holds after churn paired inserts and extractions, in bytes per element:
// HeapAlloc after two collections with the queue alive, less HeapAlloc
// before it was built. What the recycler retains (free stacks and the
// domain freelist) is live and counts.
func heapPerElement[V any](t *testing.T, resident, churn int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	q := New[V](DefaultConfig())
	r := xrand.New(0x3e3)
	var zero V
	for i := 0; i < resident; i++ {
		q.Insert(r.Uint64(), zero)
	}
	for i := 0; i < churn; i++ {
		q.Insert(r.Uint64(), zero)
		q.TryExtractMax()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := q.Len(); got != resident {
		t.Fatalf("Len = %d, want %d", got, resident)
	}
	runtime.KeepAlive(q)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(resident)
}

// TestHeapPerElement guards the memory a queue holds per resident element,
// recycler included, at 65 536 resident after a fill and after 1 Mi
// churn pairs. The bounds are what the unrolled block list this set
// replaced held, measured by this test with the rest of the package around
// it (16.64, 56.96-57.16, 19.85-19.99 and 65.75-66.04 B), rounded up: a
// set representation may not hold more.
func TestHeapPerElement(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the queue's")
	}
	const resident = 1 << 16
	for _, tc := range []struct {
		name  string
		churn int
		bound float64
		run   func(*testing.T, int, int) float64
	}{
		{"struct/fill", 0, 16.7, heapPerElement[struct{}]},
		{"bytes/fill", 0, 57.5, heapPerElement[[]byte]},
		{"struct/churn", 1 << 20, 20.2, heapPerElement[struct{}]},
		{"bytes/churn", 1 << 20, 66.5, heapPerElement[[]byte]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t, resident, tc.churn)
			t.Logf("%.2f B per element", got)
			if got > tc.bound {
				t.Fatalf("%.2f B per element, above the %.1f B bound", got, tc.bound)
			}
		})
	}
}
