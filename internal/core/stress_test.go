package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/xrand"
)

// stressConfigs are the configurations worth hammering concurrently.
func stressConfigs() map[string]Config {
	return map[string]Config{
		"default":   DefaultConfig(),
		"def-array": withSetMode(DefaultConfig(), SetModeArray),
		"strict":    {Batch: 0, TargetLen: 16, Lock: locks.TATAS},
		"array":     {Batch: 16, TargetLen: 16, Lock: locks.TATAS, SetMode: SetModeArray},
		"leaky":     {Batch: 16, TargetLen: 16, Lock: locks.TATAS, Leaky: true},
		"std-block": {Batch: 16, TargetLen: 16, Lock: locks.Std, NoTryLock: true},
		"tiny":      {Batch: 2, TargetLen: 2, Lock: locks.TAS},
	}
}

func TestConcurrentConservation(t *testing.T) {
	for name, cfg := range stressConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			q := New[int](cfg)
			goroutines := runtime.GOMAXPROCS(0)
			if goroutines > 8 {
				goroutines = 8
			}
			perG := 20000
			if testing.Short() {
				perG = 4000
			}
			if raceEnabled {
				perG /= 10
			}
			var wg sync.WaitGroup
			var extracted atomic.Int64
			var mu sync.Mutex
			seen := make(map[uint64]int)

			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := xrand.New(uint64(g) + 1)
					local := make(map[uint64]int)
					for i := 0; i < perG; i++ {
						key := uint64(g)<<32 | uint64(i)
						q.Insert(key, g)
						if r.Intn(2) == 0 {
							if k, _, ok := q.TryExtractMax(); ok {
								local[k]++
								extracted.Add(1)
							}
						}
					}
					mu.Lock()
					for k, c := range local {
						seen[k] += c
					}
					mu.Unlock()
				}(g)
			}
			wg.Wait()

			total := int64(goroutines * perG)
			remaining := total - extracted.Load()
			if got := int64(q.Len()); got != remaining {
				t.Fatalf("Len = %d, want %d", got, remaining)
			}
			if err := q.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for {
				k, _, ok := q.TryExtractMax()
				if !ok {
					break
				}
				seen[k]++
			}
			if int64(len(seen)) != total {
				t.Fatalf("extracted %d distinct keys, want %d", len(seen), total)
			}
			for k, c := range seen {
				if c != 1 {
					t.Fatalf("key %d extracted %d times", k, c)
				}
			}
		})
	}
}

func TestConcurrentExtractNeverFailsWithBalance(t *testing.T) {
	// Producers insert exactly as many elements as consumers extract; every
	// consumer retry is allowed but the run must finish (no element may be
	// lost, no extraction may fail forever).
	for name, cfg := range stressConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			q := New[int](cfg)
			const producers = 4
			const consumers = 4
			perP := 10000
			if testing.Short() {
				perP = 2000
			}
			if raceEnabled {
				perP /= 5
			}
			total := producers * perP
			var wg sync.WaitGroup
			var got atomic.Int64
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perP; i++ {
						q.Insert(uint64(p*perP+i), 0)
					}
				}(p)
			}
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for got.Load() < int64(total) {
						if _, _, ok := q.TryExtractMax(); ok {
							if got.Add(1) >= int64(total) {
								return
							}
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatalf("stalled: extracted %d of %d", got.Load(), total)
			}
			if !q.Empty() {
				t.Fatalf("queue not empty: Len = %d", q.Len())
			}
		})
	}
}

func TestBlockingProducerConsumer(t *testing.T) {
	q := New[int](Config{Batch: 8, TargetLen: 8, Blocking: true, RingSize: 8})
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
	q := New[int](Config{Batch: 4, TargetLen: 4, Blocking: true})
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

func TestCloseReleasesBlockedConsumers(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4, Blocking: true})
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

func TestConcurrentMixedWithInvariantChecks(t *testing.T) {
	// Alternate stress phases with quiescent invariant validation.
	q := New[int](Config{Batch: 8, TargetLen: 8})
	r := xrand.New(321)
	perG := 5000
	if testing.Short() {
		perG = 1000
	}
	if raceEnabled {
		perG /= 5
	}
	for phase := 0; phase < 3; phase++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g, phase int) {
				defer wg.Done()
				rr := xrand.New(uint64(phase*10 + g))
				for i := 0; i < perG; i++ {
					if rr.Intn(3) > 0 {
						q.Insert(rr.Uint64()%100000, 0)
					} else {
						q.TryExtractMax()
					}
				}
			}(g, phase)
		}
		wg.Wait()
		if err := q.CheckInvariants(); err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		_ = r
	}
}

func TestManyGoroutinesSmallQueue(t *testing.T) {
	// High contention on a nearly-empty queue: the root lock and pool are
	// constantly contended, and emptiness decisions must stay exact.
	q := New[int](Config{Batch: 4, TargetLen: 4})
	var inserted, extracted atomic.Int64
	var wg sync.WaitGroup
	perG := 5000
	if testing.Short() {
		perG = 500
	}
	if raceEnabled {
		perG /= 5
	}
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := xrand.New(uint64(g))
			for i := 0; i < perG; i++ {
				if r.Intn(2) == 0 {
					q.Insert(r.Uint64()%100, 0)
					inserted.Add(1)
				} else if _, _, ok := q.TryExtractMax(); ok {
					extracted.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	want := inserted.Load() - extracted.Load()
	if got := int64(q.Len()); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
