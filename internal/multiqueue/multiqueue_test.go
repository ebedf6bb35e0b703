package multiqueue

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

func TestEmpty(t *testing.T) {
	m := New(4, 2)
	if _, ok := m.ExtractMax(); ok {
		t.Fatal("extract from empty multiqueue succeeded")
	}
	if m.Len() != 0 {
		t.Fatal("Len != 0 on empty queue")
	}
}

func TestDefaults(t *testing.T) {
	m := New(0, 0)
	if len(m.queues) != DefaultFactor {
		t.Fatalf("New(0,0) has %d queues, want %d", len(m.queues), DefaultFactor)
	}
}

func TestConservationSingleThread(t *testing.T) {
	m := New(4, 2)
	r := xrand.New(8)
	const n = 10000
	in := map[uint64]int{}
	for i := 0; i < n; i++ {
		k := r.Uint64() % 5000
		m.Insert(k)
		in[k]++
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	out := map[uint64]int{}
	for i := 0; i < n; i++ {
		k, ok := m.ExtractMax()
		if !ok {
			t.Fatalf("extract %d failed (fallback scan must find elements)", i)
		}
		out[k]++
	}
	for k, c := range in {
		if out[k] != c {
			t.Fatalf("key %d: in %d out %d", k, c, out[k])
		}
	}
}

func TestExtractsHighPriorityKeys(t *testing.T) {
	// Two-choice sampling keeps extractions near the top: over a large
	// prefill, the first extraction must be within the top O(#queues)
	// ranks with overwhelming probability.
	m := New(4, 2) // 8 queues
	const n = 8192
	for i := 0; i < n; i++ {
		m.Insert(uint64(i))
	}
	k, ok := m.ExtractMax()
	if !ok {
		t.Fatal("extract failed")
	}
	if k < n-256 {
		t.Fatalf("first extraction rank %d — too relaxed for 8 queues", n-1-int(k))
	}
}

func TestConcurrentConservation(t *testing.T) {
	const goroutines = 8
	perG := 10000
	if testing.Short() {
		perG = 2000
	}
	m := New(goroutines, 2)
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[uint64]int{}
	var count atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := xrand.New(uint64(g) + 100)
			local := map[uint64]int{}
			for i := 0; i < perG; i++ {
				m.Insert(uint64(g)<<32 | uint64(i))
				if r.Intn(2) == 0 {
					if k, ok := m.ExtractMax(); ok {
						local[k]++
						count.Add(1)
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
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("concurrent multiqueue stalled")
	}
	for {
		k, ok := m.ExtractMax()
		if !ok {
			break
		}
		seen[k]++
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("saw %d distinct keys, want %d", len(seen), goroutines*perG)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d seen %d times", k, c)
		}
	}
}

func BenchmarkMixed(b *testing.B) {
	m := New(8, 2)
	for i := 0; i < 1<<16; i++ {
		m.Insert(xrand.Mix64(uint64(i)) % (1 << 20))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(uint64(b.N))
		for pb.Next() {
			if r.Intn(2) == 0 {
				m.Insert(r.Uint64() % (1 << 20))
			} else {
				m.ExtractMax()
			}
		}
	})
}

// Len reports a snapshot element count.
func (m *MultiQueue) Len() int {
	var total int64
	for i := range m.queues {
		total += m.queues[i].size.Load()
	}
	return int(total)
}
