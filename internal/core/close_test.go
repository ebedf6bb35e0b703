package core

import (
	"runtime"
	"testing"
	"time"
)

// Shutdown-semantics coverage: Close idempotency, Insert-after-Close,
// helper goroutine termination, and the drain extensions (Drain,
// CloseAndDrain). Blocked-consumer release is package waitring's.

func TestCloseIdempotent(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			q := newTestQueue[int](cfg)
			q.Close()
			q.Close() // second Close must be a no-op, not a panic
			if !q.Closed() {
				t.Fatal("Closed() = false after Close")
			}
		})
	}
}

func TestInsertAfterCloseIsRetrievable(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Lock: LockTATAS})
	q.Insert(1, 10)
	q.Close()
	q.Insert(2, 20) // Insert remains legal after Close
	got := map[uint64]int{}
	for {
		k, v, ok := q.TryExtractMax()
		if !ok {
			break
		}
		got[k] = v
	}
	if len(got) != 2 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("elements after close: %v", got)
	}
}

func TestCloseStopsHelperGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	q := New[int](Config{Batch: 4, TargetLen: 4, Helper: true})
	q.Insert(1, 1)
	time.Sleep(5 * time.Millisecond) // let the helper run at least once
	q.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("helper goroutine leaked: %d goroutines, baseline %d", n, base)
	}
}

func TestDrainReturnsEverything(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Lock: LockTATAS})
	const n = 100
	for i := 1; i <= n; i++ {
		q.Insert(uint64(i), i)
	}
	out := q.Drain()
	if len(out) != n {
		t.Fatalf("Drain returned %d elements, want %d", len(out), n)
	}
	seen := map[uint64]bool{}
	for _, e := range out {
		if e.Val != int(e.Key) {
			t.Fatalf("element %d carries value %d", e.Key, e.Val)
		}
		if seen[e.Key] {
			t.Fatalf("element %d drained twice", e.Key)
		}
		seen[e.Key] = true
	}
	if _, _, ok := q.TryExtractMax(); ok {
		t.Fatal("queue nonempty after Drain")
	}
}
