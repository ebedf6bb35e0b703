package core

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Zero-allocation regression tests for the steady-state hot paths. The
// contract: with a warmed queue, one paired Insert+TryExtractMax must
// perform zero heap allocations in every set mode — memory-safe list (a
// hazard publication is a store, and retired nodes come back through the
// context's free stack), leaky list and array. The pairing matters — an
// insert-only workload grows the queue and therefore must allocate new
// element storage eventually; "zero-allocation" is a claim about steady
// state, where node recycling balances consumption.
//
// Two enforcement layers per mode:
//
//   - testing.AllocsPerRun, the conventional reporting tool (its result is
//     rounded, so it alone could hide one allocation every few runs);
//   - a strict MemStats.Mallocs delta across 10k paired operations with
//     the GC disabled, which catches even rare per-refill allocations.

func zeroAllocConfigs() []struct {
	name string
	cfg  Config
} {
	safe := DefaultConfig()
	leaky := DefaultConfig()
	leaky.Leaky = true
	array := DefaultConfig()
	array.SetMode = SetModeArray
	arrayLeaky := DefaultConfig()
	arrayLeaky.SetMode, arrayLeaky.Leaky = SetModeArray, true
	out := []struct {
		name string
		cfg  Config
	}{
		{"memory-safe-list", safe},
		{"leaky-list", leaky},
		{"array", array},
		{"array-leaky", arrayLeaky},
	}
	// The metrics hook must not cost an allocation: every instrumented
	// variant carries the same zero-alloc contract as its plain twin
	// (ISSUE 3 acceptance).
	for _, mode := range out[:len(out):len(out)] {
		cfg := mode.cfg
		cfg.Metrics = NewMetrics()
		out = append(out, struct {
			name string
			cfg  Config
		}{mode.name + "+metrics", cfg})
	}
	return out
}

// warmQueue builds a queue at a steady-state size with warmed context
// pools, scratch capacities, and node caches, and keeps finalizers from
// running until the test ends.
func warmQueue(t *testing.T, cfg Config) (*Queue[int], func() uint64) {
	t.Helper()
	// Held from before the warm-up, not from just before the measurement:
	// the collection it takes empties every sync.Pool, and the warm-up is
	// what fills them again.
	t.Cleanup(holdFinalizers())
	q := New[int](cfg)
	t.Cleanup(q.Close)
	var rng uint64 = 0x9e3779b97f4a7c15
	draw := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng >> 44
	}
	for i := 0; i < 1<<13; i++ {
		q.Insert(draw(), i)
	}
	// Overshoot the steady size and come back. In memory-safe mode the
	// nodes in circulation must cover the resident set plus a retired list
	// one short of its scan plus a pool refill's worth; left to the mix
	// that population is reached one fresh node at a time, whenever an
	// allocation happens to find every spare node waiting for a scan.
	for i := 0; i < 256; i++ {
		q.Insert(draw(), i)
	}
	for i := 0; i < 256; i++ {
		q.TryExtractMax()
	}
	for i := 0; i < 1<<12; i++ {
		q.Insert(draw(), i)
		q.TryExtractMax()
	}
	return q, draw
}

// pinForAllocs serializes the scheduler and disables the GC so that
// MemStats.Mallocs deltas are attributable to the measured loop alone.
func pinForAllocs(t *testing.T) {
	t.Helper()
	prevGC := debug.SetGCPercent(-1)
	prevProcs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		debug.SetGCPercent(prevGC)
		runtime.GOMAXPROCS(prevProcs)
	})
}

// holdFinalizers parks the runtime's finalizer goroutine — one goroutine
// runs every finalizer, in sequence — until the returned function is
// called. A memory-safe context that sync.Pool dropped, or a whole queue an
// earlier subtest left behind, is finalized at a time of the collector's
// choosing; the finalizer pushes the context's free stack onto the shared
// freelist, which may grow it, and that must not land in a measured window.
func holdFinalizers() (release func()) {
	type sentinel struct{ _ [4]*int } // past the tiny allocator, which may skip finalizers
	held, done := make(chan struct{}), make(chan struct{})
	runtime.SetFinalizer(new(sentinel), func(*sentinel) { close(held); <-done })
	runtime.GC()
	<-held
	return func() { close(done) }
}

// skipIfInstrumented skips alloc assertions under instrumentation that
// itself allocates on the measured paths.
func skipIfInstrumented(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
}

func TestZeroAllocInsertExtract(t *testing.T) {
	skipIfInstrumented(t)
	for _, mode := range zeroAllocConfigs() {
		t.Run(mode.name, func(t *testing.T) {
			q, draw := warmQueue(t, mode.cfg)
			pair := func() {
				q.Insert(draw(), 0)
				q.TryExtractMax()
			}
			pinForAllocs(t)

			if got := testing.AllocsPerRun(2000, pair); got != 0 {
				t.Errorf("AllocsPerRun(Insert+TryExtractMax) = %v, want 0", got)
			}

			const ops = 10_000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < ops; i++ {
				pair()
			}
			runtime.ReadMemStats(&after)
			if d := after.Mallocs - before.Mallocs; d != 0 {
				t.Errorf("strict Mallocs delta over %d paired ops = %d, want 0", ops, d)
			}
		})
	}
}

// TestZeroAllocBatch pins the batch API's amortized allocation rate. The
// strict bound is slightly looser than the single-op test (sync.Pool's
// internal bookkeeping allocates once in a while when a pooled context or
// cache overflow slot migrates); a handful of allocations per hundred
// thousand elements is indistinguishable from zero for GC-pressure
// purposes but a per-operation allocation (>= 1 alloc/op) is three orders
// of magnitude above the threshold and fails loudly.
func TestZeroAllocBatch(t *testing.T) {
	skipIfInstrumented(t)
	for _, mode := range zeroAllocConfigs() {
		t.Run(mode.name, func(t *testing.T) {
			q, draw := warmQueue(t, mode.cfg)
			const batch = 64
			keys := make([]uint64, batch)
			dst := make([]Element[int], 0, batch)
			step := func() {
				for i := range keys {
					keys[i] = draw()
				}
				q.InsertBatch(keys, nil)
				dst = q.ExtractBatch(dst[:0], batch)
			}
			for i := 0; i < 64; i++ { // warm batch-sized scratch
				step()
			}
			pinForAllocs(t)

			const rounds = 512 // 32768 elements each way
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			perOp := float64(after.Mallocs-before.Mallocs) / float64(rounds*batch)
			if perOp > 0.01 {
				t.Errorf("batch Mallocs per element = %v, want amortized zero (<= 0.01)", perOp)
			}
		})
	}
}
