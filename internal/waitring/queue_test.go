package waitring

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// The Queue tests drive the ring through the wrapper over a real
// core.Queue: the ticket argument holds only if every insert signals after
// its element is visible, and that is the wrapper's job.

func newQueue(batch int) *Queue[int] {
	return New(core.New[int](core.Config{Batch: batch, TargetLen: batch}))
}

func TestBlockingProducerConsumer(t *testing.T) {
	q := newQueue(8)
	const producers = 2
	const consumers = 8 // must divide producers*perP so the handoff balances
	perP := 20000
	if testing.Short() {
		perP = 4000
	}
	if raceEnabled {
		perP /= 5
	}
	total := producers * perP
	perC := total / consumers

	var wg sync.WaitGroup
	var sum atomic.Uint64
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				k, _, ok := q.ExtractMax()
				if !ok {
					t.Error("blocking ExtractMax returned false without Close")
					return
				}
				sum.Add(k)
			}
		}()
	}
	// Stagger producers so consumers actually block.
	var wantSum uint64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				k := uint64(p*perP + i + 1)
				q.Insert(k, 0)
			}
		}(p)
	}
	for i := 1; i <= total; i++ {
		wantSum += uint64(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("blocking handoff stalled")
	}
	if sum.Load() != wantSum {
		t.Fatalf("checksum %d != %d: elements lost or duplicated", sum.Load(), wantSum)
	}
	if !q.Empty() {
		t.Fatalf("queue not empty after balanced handoff: Len=%d", q.Len())
	}
}

func TestBlockingConsumersSleepUntilInsert(t *testing.T) {
	q := newQueue(4)
	got := make(chan uint64, 1)
	go func() {
		k, _, ok := q.ExtractMax()
		if ok {
			got <- k
		} else {
			close(got)
		}
	}()
	select {
	case <-got:
		t.Fatal("consumer returned before any insert")
	case <-time.After(50 * time.Millisecond):
	}
	q.Insert(77, 0)
	select {
	case k := <-got:
		if k != 77 {
			t.Fatalf("got %d, want 77", k)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert did not wake the blocked consumer")
	}
}

// TestInsertBatchReleasesExactlyN blocks more consumers than a batch holds
// and checks that an InsertBatch of n keys wakes exactly n of them, each
// with a distinct key of the batch, and leaves the rest asleep.
func TestInsertBatchReleasesExactlyN(t *testing.T) {
	q := newQueue(4)
	const consumers, n = 8, 5
	got := make(chan uint64, consumers)
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if k, _, ok := q.ExtractMax(); ok {
				got <- k
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the consumers reach their sleep
	keys := []uint64{10, 20, 30, 40, 50}
	q.InsertBatch(keys, nil)
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		select {
		case k := <-got:
			if seen[k] {
				t.Fatalf("key %d handed out twice", k)
			}
			seen[k] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("InsertBatch of %d keys released only %d consumers", n, i)
		}
	}
	select {
	case k := <-got:
		t.Fatalf("a consumer beyond the batch returned key %d", k)
	case <-time.After(50 * time.Millisecond):
	}
	for _, k := range keys {
		if !seen[k] {
			t.Fatalf("key %d was not handed out", k)
		}
	}
	q.Close()
	wg.Wait()
	if len(got) != 0 {
		t.Fatalf("%d consumers extracted after Close from an empty queue", len(got))
	}
}

func TestCloseReleasesBlockedConsumers(t *testing.T) {
	q := newQueue(4)
	const waiters = 4
	done := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, _, ok := q.ExtractMax()
			done <- ok
		}()
	}
	time.Sleep(50 * time.Millisecond)
	q.Close()
	if !q.Closed() {
		t.Fatal("Closed() false after Close")
	}
	for i := 0; i < waiters; i++ {
		select {
		case ok := <-done:
			if ok {
				t.Fatal("consumer extracted from an empty closed queue")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not release blocked consumers")
		}
	}
	// The queue is still usable non-blockingly after Close.
	q.Insert(5, 1)
	if k, _, ok := q.TryExtractMax(); !ok || k != 5 {
		t.Fatal("queue unusable after Close")
	}
}

func TestCloseReleasesBlockedConsumersExactlyOnce(t *testing.T) {
	q := newQueue(4)
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

func TestCloseAndDrainReleasesAndReturnsRemainder(t *testing.T) {
	q := newQueue(4)
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

func TestExtractMaxClosedDrains(t *testing.T) {
	q := newQueue(4)
	q.Insert(5, 50)
	q.Close()
	// A closed queue still hands out its remaining elements...
	if k, v, ok := q.ExtractMax(); !ok || k != 5 || v != 50 {
		t.Fatalf("got (%d, %d, %v), want (5, 50, true)", k, v, ok)
	}
	// ...and reports ok=false, without blocking, once drained.
	if _, _, ok := q.ExtractMax(); ok {
		t.Fatal("ExtractMax returned ok=true on a drained closed queue")
	}
}
