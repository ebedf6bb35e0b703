package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// BenchmarkSteadyMix is the paper's headline mix — 50/50 insert/extract at
// a fixed resident set — on one core.Queue in each reclamation mode, so the
// safe-vs-leak gap that Figures 5, 7 and 8 isolate is a number
// `go test -bench SteadyMix -count 10 | benchstat` reproduces:
//
//	safe   DefaultConfig: list sets, hazard pointers (§3.5)
//	leaky  the paper's "ZMSQ (leak)": list sets, no protocol
//	array  array sets, which have no nodes to reclaim
//
// each at 1 goroutine and at GOMAXPROCS. A queue holds 65 536 uniform
// 48-bit keys and is run for 2 Mi operations before anything is timed: a
// young queue is faster than the steady one (bench/README.md), and a short
// run would report its own length. The queue is built once per
// sub-benchmark and kept across the harness's b.N ramp.
func BenchmarkSteadyMix(b *testing.B) {
	const (
		resident = 1 << 16
		warmup   = 2 << 20
	)
	safe := DefaultConfig()
	safe.SetMode = SetModeList
	leaky := safe
	leaky.Leaky = true
	array := DefaultConfig()
	array.SetMode = SetModeArray
	modes := []struct {
		name string
		cfg  Config
	}{{"safe", safe}, {"leaky", leaky}, {"array", array}}

	mix := func(q *Queue[struct{}], seed uint64, ops int) {
		r := xrand.New(seed)
		for i := 0; i < ops; i += 2 {
			q.Insert(r.Uint64()>>16, struct{}{})
			q.TryExtractMax()
		}
	}
	for _, mode := range modes {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			var q *Queue[struct{}]
			b.Run(fmt.Sprintf("%s/%d", mode.name, workers), func(b *testing.B) {
				if q == nil {
					q = New[struct{}](mode.cfg)
					r := xrand.New(1)
					for i := 0; i < resident; i++ {
						q.Insert(r.Uint64()>>16, struct{}{})
					}
					mix(q, 2, warmup)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						mix(q, uint64(b.N+w), b.N/workers)
					}(w)
				}
				wg.Wait()
			})
		}
	}
}
