package fault

import (
	"sync"
	"testing"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	for _, p := range Points() {
		if in.Fire(p) {
			t.Fatalf("nil injector fired at %v", p)
		}
		in.Stall(p) // must not panic
		if in.Calls(p) != 0 || in.Fired(p) != 0 {
			t.Fatalf("nil injector reported nonzero counts at %v", p)
		}
	}
}

// TestDeterministicVerdictStream: the n-th verdict of a point depends only
// on (seed, point, n), so two injectors with the same seed produce the
// same stream even when one is driven concurrently.
func TestDeterministicVerdictStream(t *testing.T) {
	const n = 10000
	plan := DefaultPlan()
	ref := New(42, plan)
	want := make([]bool, n)
	for i := range want {
		want[i] = ref.Fire(TryLock)
	}

	again := New(42, plan)
	for i := range want {
		if got := again.Fire(TryLock); got != want[i] {
			t.Fatalf("verdict %d: got %v, want %v", i, got, want[i])
		}
	}

	// Concurrent driving must fire the same *number* of times over the same
	// number of queries (the stream is fixed; only its assignment to
	// goroutines varies).
	conc := New(42, plan)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				conc.Fire(TryLock)
			}
		}()
	}
	wg.Wait()
	wantFired := uint64(0)
	for _, v := range want {
		if v {
			wantFired++
		}
	}
	if got := conc.Fired(TryLock); got != wantFired {
		t.Fatalf("concurrent fired = %d, want %d", got, wantFired)
	}
	if got := conc.Calls(TryLock); got != n {
		t.Fatalf("concurrent calls = %d, want %d", got, n)
	}
}

func TestFireRateApproximatesPlan(t *testing.T) {
	const n = 20000
	in := New(7, Plan{TryLockPct: 20})
	for i := 0; i < n; i++ {
		in.Fire(TryLock)
	}
	rate := float64(in.Fired(TryLock)) / n * 100
	if rate < 17 || rate > 23 {
		t.Fatalf("fire rate %.1f%%, want ~20%%", rate)
	}
}

func TestZeroAndFullRates(t *testing.T) {
	in := New(1, Plan{TreeGrowPct: 100})
	for i := 0; i < 100; i++ {
		if !in.Fire(TreeGrow) {
			t.Fatal("100% point failed to fire")
		}
		if in.Fire(PoolHandoff) {
			t.Fatal("0% point fired")
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a, b := New(1, DefaultPlan()), New(2, DefaultPlan())
	same := true
	for i := 0; i < 1000; i++ {
		if a.Fire(TryLock) != b.Fire(TryLock) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical verdict streams")
	}
}

func TestFiredAndCalls(t *testing.T) {
	in := New(3, Plan{TryLockPct: 100})
	in.Fire(TryLock)
	for _, p := range Points() {
		want := uint64(0)
		if p == TryLock {
			want = 1
		}
		if in.Fired(p) != want || in.Calls(p) != want {
			t.Fatalf("%v: fired/calls = %d/%d, want %d/%d", p, in.Fired(p), in.Calls(p), want, want)
		}
	}
}
