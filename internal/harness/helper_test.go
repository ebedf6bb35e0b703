package harness

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xrand"
)

// TestHelperDriver runs StartHelper against a draining workload: the
// passes must move elements, stop must return their total (the same on a
// second call) and leave the queue intact, and the driver's goroutine
// must be gone afterwards. Close ending the driver is tested in package
// core (TestCloseStopsHelperGoroutine, TestHelperGoroutineLifecycle).
func TestHelperDriver(t *testing.T) {
	base := runtime.NumGoroutine()
	q := core.New[int](core.Config{Batch: 8, TargetLen: 16})
	r := xrand.New(3)
	for i := 0; i < 30000; i++ {
		q.Insert(r.Uint64(), 0)
	}
	stop := StartHelper(q)
	// Extraction hollows out the upper sets the passes refill.
	for i := 0; i < 10000; i++ {
		q.TryExtractMax()
	}
	time.Sleep(50 * time.Millisecond)
	moved := stop()
	if moved <= 0 {
		t.Fatalf("the driver moved %d elements under a draining workload", moved)
	}
	if again := stop(); again != moved {
		t.Fatalf("a second stop returned %d, the first %d", again, moved)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := q.Len(); got != 20000 {
		t.Fatalf("Len = %d, want 20000", got)
	}
	waitGoroutines(t, base, "after stop")
}

// waitGoroutines fails unless the goroutine count falls back to base
// within a deadline.
func waitGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, baseline %d", when, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosHelperRefusesSharded: the helper drives one core queue, so a
// plan that opens the sharded front-end cannot select it.
func TestChaosHelperRefusesSharded(t *testing.T) {
	for name, mod := range map[string]func(*ChaosPlan){
		"sharded": func(p *ChaosPlan) { p.Shards = 2 },
		"durable": func(p *ChaosPlan) { p.Durable, p.WALDir = true, t.TempDir() },
	} {
		plan := chaosPlan(1)
		plan.Helper = true
		mod(&plan)
		if _, err := RunChaos(plan); !errors.Is(err, errChaosHelper) {
			t.Errorf("%s: err = %v, want %v", name, err, errChaosHelper)
		}
	}
}
