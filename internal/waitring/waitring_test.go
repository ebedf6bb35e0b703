package waitring

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFutexWaitReturnsWhenValueDiffers(t *testing.T) {
	var f Futex
	f.word.Store(5)
	done := make(chan struct{})
	go func() {
		f.Wait(4) // word is 5, differs immediately
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait blocked although value differed")
	}
}

func TestFutexWaitWake(t *testing.T) {
	var f Futex
	f.word.Store(1)
	done := make(chan struct{})
	go func() {
		f.Wait(1)
		close(done)
	}()
	// Give the waiter a moment to actually block.
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Wait returned before value changed")
	default:
	}
	f.word.Store(2)
	f.Wake()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wake did not release waiter")
	}
}

func TestFutexNoLostWakeup(t *testing.T) {
	// Hammer the wait/wake pair; a lost wakeup manifests as a hang.
	var f Futex
	const rounds = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			f.Wait(uint32(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			f.word.Store(uint32(i + 1))
			f.Wake()
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("lost wakeup: wait/wake pair hung")
	}
}

func TestFutexCASAndLoad(t *testing.T) {
	var f Futex
	if !f.CompareAndSwap(0, 7) {
		t.Fatal("CAS from zero failed")
	}
	if f.Load() != 7 {
		t.Fatalf("Load = %d, want 7", f.Load())
	}
	if f.CompareAndSwap(0, 9) {
		t.Fatal("CAS with stale old value succeeded")
	}
}

func TestRingSizeRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, DefaultSlots}, {-1, DefaultSlots}, {1, 1}, {3, 4}, {64, 64}, {65, 128}} {
		r := New(c.in)
		if len(r.slots) != c.want {
			t.Errorf("New(%d) has %d slots, want %d", c.in, len(r.slots), c.want)
		}
	}
}

func TestAwaitFastPathWhenCovered(t *testing.T) {
	r := New(8)
	r.Signal()
	done := make(chan bool, 1)
	go func() { done <- r.Await() }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Await returned false with a covered ticket")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Await blocked with a covered ticket")
	}
}

func TestAwaitBlocksUntilSignal(t *testing.T) {
	r := New(8)
	started := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		close(started)
		done <- r.Await()
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Await returned before any Signal")
	default:
	}
	r.Signal()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Await returned false after Signal")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Signal did not release Await")
	}
}

func TestCloseReleasesWaiters(t *testing.T) {
	r := New(8)
	const waiters = 8
	results := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		go func() { results <- r.Await() }()
	}
	time.Sleep(20 * time.Millisecond)
	r.Close()
	if !r.closed.Load() {
		t.Fatal("closed flag unset after Close")
	}
	for i := 0; i < waiters; i++ {
		select {
		case ok := <-results:
			if ok {
				t.Fatal("Await returned true though no Signal was sent")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not release all waiters")
		}
	}
}

func TestAwaitAfterCloseDoesNotBlock(t *testing.T) {
	r := New(8)
	r.Close()
	done := make(chan bool, 1)
	go func() { done <- r.Await() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Await blocked after Close")
	}
}

func TestEveryTicketCovered(t *testing.T) {
	// N producers and N consumers; every Await must return true and the
	// total handoffs must balance.
	r := New(16)
	const producers = 4
	const consumers = 4
	const perProducer = 5000
	total := producers * perProducer
	perConsumer := total / consumers

	var falseReturns atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				r.Signal()
			}
		}()
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perConsumer; i++ {
				if !r.Await() {
					falseReturns.Add(1)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handoff stress hung (lost wakeup)")
	}
	if n := falseReturns.Load(); n != 0 {
		t.Fatalf("%d Await calls returned false without Close", n)
	}
}

func TestSlowConsumerManyProducers(t *testing.T) {
	r := New(4) // small ring forces slot sharing
	const signals = 10000
	done := make(chan struct{})
	go func() {
		for i := 0; i < signals; i++ {
			if !r.Await() {
				t.Error("uncovered Await")
				break
			}
		}
		close(done)
	}()
	for i := 0; i < signals; i++ {
		r.Signal()
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("consumer starved")
	}
}

func TestPushesCounter(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		r.Signal()
	}
	if got := r.pushes.Load(); got != 5 {
		t.Fatalf("pushes = %d, want 5", got)
	}
}

func BenchmarkSignalNoSleeper(b *testing.B) {
	r := New(64)
	for i := 0; i < b.N; i++ {
		r.Signal()
	}
}

func BenchmarkUncontendedHandoff(b *testing.B) {
	r := New(64)
	for i := 0; i < b.N; i++ {
		r.Signal()
		r.Await()
	}
}

func BenchmarkParallelHandoff(b *testing.B) {
	r := New(64)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Signal()
			r.Await()
		}
	})
}

func TestRingSizeOne(t *testing.T) {
	// A single slot serializes all sleepers/wakers; correctness must not
	// depend on dispersal.
	r := New(1)
	const n = 5000
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			if !r.Await() {
				t.Error("uncovered Await")
				break
			}
		}
		close(done)
	}()
	for i := 0; i < n; i++ {
		r.Signal()
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("single-slot ring lost a wakeup")
	}
}

func TestCloseDuringChurn(t *testing.T) {
	// Close racing with active producers/consumers must release every
	// blocked consumer exactly once and never hang.
	for trial := 0; trial < 20; trial++ {
		r := New(8)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if !r.Await() {
						return // closed
					}
					select {
					case <-stop:
						// Keep consuming leftover signals until closed.
					default:
					}
				}
			}()
		}
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					r.Signal()
				}
			}()
		}
		time.Sleep(time.Millisecond)
		close(stop)
		r.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("trial %d: close during churn hung", trial)
		}
	}
}

func TestManyWaitersSingleProducer(t *testing.T) {
	// More sleepers than slots: each signal must wake the right sleeper
	// (ticket matching), even with heavy slot sharing.
	r := New(4)
	const waiters = 32
	var wg sync.WaitGroup
	var released atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.Await() {
				released.Add(1)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < waiters; i++ {
		r.Signal()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("released only %d of %d waiters", released.Load(), waiters)
	}
	if released.Load() != waiters {
		t.Fatalf("released %d, want %d", released.Load(), waiters)
	}
}
