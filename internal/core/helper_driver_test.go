package core_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/xrand"
)

// The queue starts no goroutine of its own; the §5 helper runs on the
// driver harness.StartHelper starts. These tests hold Close to the part of
// the contract that driver relies on: closing the queue ends it.

func TestCloseStopsHelperGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	q := core.New[int](core.Config{Batch: 4, TargetLen: 4})
	stop := harness.StartHelper(q)
	q.Insert(1, 1)
	time.Sleep(5 * time.Millisecond) // let the driver run at least one pass
	q.Close()
	waitGoroutines(t, base)
	stop()
}

// TestHelperGoroutineLifecycle runs the driver against a draining
// workload and ends it with Close, twice: the goroutine must exit, stop
// must then report the moves (the same total on every call), and the
// queue must be intact.
func TestHelperGoroutineLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	q := core.New[int](core.Config{Batch: 8, TargetLen: 16})
	r := xrand.New(3)
	for i := 0; i < 30000; i++ {
		q.Insert(r.Uint64(), 0)
	}
	stop := harness.StartHelper(q)
	for i := 0; i < 10000; i++ {
		q.TryExtractMax()
	}
	time.Sleep(50 * time.Millisecond)
	q.Close()
	q.Close() // idempotent
	waitGoroutines(t, base)
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
}

// waitGoroutines fails unless the goroutine count falls back to base
// within a deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("helper goroutine leaked: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
