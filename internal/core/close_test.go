package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locks"
)

// Shutdown-semantics coverage: Close idempotency, Insert-after-Close,
// blocked-consumer release, helper goroutine termination, and the
// context/drain extensions (ExtractMaxContext, Drain, CloseAndDrain).

func TestCloseIdempotent(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			q := New[int](cfg)
			q.Close()
			q.Close() // second Close must be a no-op, not a panic
			if !q.Closed() {
				t.Fatal("Closed() = false after Close")
			}
		})
	}
}

func TestInsertAfterCloseIsRetrievable(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Lock: locks.TATAS})
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

func TestCloseReleasesBlockedConsumersExactlyOnce(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Blocking: true})
	const consumers = 8
	var returned atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, ok := q.ExtractMax() // empty queue: blocks until Close
			if ok {
				t.Error("ExtractMax returned ok=true on an empty closed queue")
			}
			returned.Add(1)
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the consumers reach their sleep
	q.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/%d blocked consumers released by Close", returned.Load(), consumers)
	}
	if returned.Load() != consumers {
		t.Fatalf("released %d consumers, want %d", returned.Load(), consumers)
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
	q := New[int](Config{Batch: 4, TargetLen: 4, Lock: locks.TATAS})
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

func TestCloseAndDrainReleasesAndReturnsRemainder(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Blocking: true})
	var blocked sync.WaitGroup
	blocked.Add(1)
	go func() {
		defer blocked.Done()
		q.ExtractMax() // blocks on the empty queue until Close
	}()
	time.Sleep(10 * time.Millisecond)
	for i := 1; i <= 50; i++ {
		q.Insert(uint64(i), i)
	}
	out := q.CloseAndDrain()
	blocked.Wait() // the blocked consumer must have been released
	// The racing consumer may have taken one element; everything else must
	// be in the drain, each element exactly once.
	if len(out) < 49 || len(out) > 50 {
		t.Fatalf("CloseAndDrain returned %d elements, want 49 or 50", len(out))
	}
	// Idempotent: a second call returns only what arrived since.
	q.Insert(99, 99)
	out2 := q.CloseAndDrain()
	if len(out2) != 1 || out2[0].Key != 99 {
		t.Fatalf("second CloseAndDrain: %v", out2)
	}
}

func TestExtractMaxContextImmediate(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Lock: locks.TATAS})
	q.Insert(7, 70)
	k, v, err := q.ExtractMaxContext(context.Background())
	if err != nil || k != 7 || v != 70 {
		t.Fatalf("got (%d, %d, %v)", k, v, err)
	}
}

func TestExtractMaxContextEmptyNonBlocking(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Lock: locks.TATAS})
	if _, _, err := q.ExtractMaxContext(context.Background()); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestExtractMaxContextCancellation(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Blocking: true})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := q.ExtractMaxContext(ctx)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the wait
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not release the waiting consumer")
	}
}

func TestExtractMaxContextDeadline(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Blocking: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := q.ExtractMaxContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline honored only after %v", elapsed)
	}
}

func TestExtractMaxContextWokenByInsert(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Blocking: true})
	type result struct {
		k   uint64
		err error
	}
	resc := make(chan result, 1)
	go func() {
		k, _, err := q.ExtractMaxContext(context.Background())
		resc <- result{k, err}
	}()
	time.Sleep(10 * time.Millisecond)
	q.Insert(42, 420)
	select {
	case r := <-resc:
		if r.err != nil || r.k != 42 {
			t.Fatalf("got (%d, %v)", r.k, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert did not wake the waiting consumer")
	}
}

func TestExtractMaxContextClosedDrains(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Blocking: true})
	q.Insert(5, 50)
	q.Close()
	// A closed queue still hands out its remaining elements...
	k, _, err := q.ExtractMaxContext(context.Background())
	if err != nil || k != 5 {
		t.Fatalf("got (%d, %v), want (5, nil)", k, err)
	}
	// ...and reports ErrClosed once drained.
	if _, _, err := q.ExtractMaxContext(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestExtractMaxContextCloseReleasesWaiter(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Blocking: true})
	errc := make(chan error, 1)
	go func() {
		_, _, err := q.ExtractMaxContext(context.Background())
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the context waiter")
	}
}
