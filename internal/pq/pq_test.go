package pq

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSeqHeapBasics(t *testing.T) {
	h := NewSeqHeap(0)
	if _, ok := h.ExtractMax(); ok {
		t.Fatal("ExtractMax on empty heap succeeded")
	}
	if _, ok := h.Max(); ok {
		t.Fatal("Max on empty heap succeeded")
	}
	h.Insert(3)
	h.Insert(1)
	h.Insert(4)
	h.Insert(1)
	h.Insert(5)
	if m, _ := h.Max(); m != 5 {
		t.Fatalf("Max = %d, want 5", m)
	}
	want := []uint64{5, 4, 3, 1, 1}
	for i, w := range want {
		got, ok := h.ExtractMax()
		if !ok || got != w {
			t.Fatalf("extract %d: got %d,%v want %d", i, got, ok, w)
		}
	}
	if n := len(h.a); n != 0 {
		t.Fatalf("Len = %d after draining", n)
	}
}

func TestSeqHeapSortedOutputProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		h := NewSeqHeap(len(keys))
		for _, k := range keys {
			h.Insert(k)
			if !h.valid() {
				return false
			}
		}
		out := make([]uint64, 0, len(keys))
		for {
			v, ok := h.ExtractMax()
			if !ok {
				break
			}
			out = append(out, v)
			if !h.valid() {
				return false
			}
		}
		if len(out) != len(keys) {
			return false
		}
		sorted := append([]uint64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		for i := range out {
			if out[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqHeapInterleavedOps(t *testing.T) {
	r := xrand.New(42)
	h := NewSeqHeap(0)
	oracle := make([]uint64, 0)
	for i := 0; i < 10000; i++ {
		if r.Intn(2) == 0 || len(oracle) == 0 {
			k := r.Uint64() % 1000
			h.Insert(k)
			oracle = append(oracle, k)
		} else {
			got, ok := h.ExtractMax()
			if !ok {
				t.Fatal("heap empty while oracle nonempty")
			}
			// Find and remove max from oracle.
			maxIdx := 0
			for j, v := range oracle {
				if v > oracle[maxIdx] {
					maxIdx = j
				}
			}
			if got != oracle[maxIdx] {
				t.Fatalf("op %d: got %d want %d", i, got, oracle[maxIdx])
			}
			oracle[maxIdx] = oracle[len(oracle)-1]
			oracle = oracle[:len(oracle)-1]
		}
	}
}

func TestGlobalHeapConcurrentConservation(t *testing.T) {
	q := NewGlobalHeap(0)
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	var mu sync.Mutex
	extracted := make(map[uint64]int)

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := make(map[uint64]int)
			for i := 0; i < perG; i++ {
				key := uint64(g*perG + i)
				q.Insert(key)
				if v, ok := q.ExtractMax(); ok {
					local[v]++
				}
			}
			mu.Lock()
			for k, c := range local {
				extracted[k] += c
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	// Drain the remainder.
	for {
		v, ok := q.ExtractMax()
		if !ok {
			break
		}
		extracted[v]++
	}
	if len(extracted) != goroutines*perG {
		t.Fatalf("extracted %d distinct keys, want %d", len(extracted), goroutines*perG)
	}
	for k, c := range extracted {
		if c != 1 {
			t.Fatalf("key %d extracted %d times", k, c)
		}
	}
}

func TestGlobalHeapStrictOrderSingleThread(t *testing.T) {
	q := NewGlobalHeap(0)
	r := xrand.New(7)
	for i := 0; i < 1000; i++ {
		q.Insert(r.Uint64())
	}
	prev := ^uint64(0)
	for {
		v, ok := q.ExtractMax()
		if !ok {
			break
		}
		if v > prev {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO()
	if _, ok := q.ExtractMax(); ok {
		t.Fatal("extract from empty FIFO succeeded")
	}
	for i := uint64(0); i < 100; i++ {
		q.Insert(i)
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := q.ExtractMax()
		if !ok || v != i {
			t.Fatalf("got %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := q.ExtractMax(); ok {
		t.Fatal("FIFO not empty after draining")
	}
}

func TestFIFOConcurrentConservation(t *testing.T) {
	q := NewFIFO()
	const producers = 4
	const consumers = 4
	const perP = 10000
	total := producers * perP

	var wg sync.WaitGroup
	results := make(chan uint64, total)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				q.Insert(uint64(p*perP + i))
			}
		}(p)
	}
	var consumed sync.WaitGroup
	var remaining = make(chan struct{})
	for c := 0; c < consumers; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				v, ok := q.ExtractMax()
				if ok {
					results <- v
					if len(results) == total {
						return
					}
					continue
				}
				select {
				case <-remaining:
					// Producers done and queue observed empty; one final
					// drain pass then exit.
					if v, ok := q.ExtractMax(); ok {
						results <- v
						continue
					}
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(remaining)
	consumed.Wait()
	close(results)
	seen := make(map[uint64]bool)
	for v := range results {
		if seen[v] {
			t.Fatalf("key %d extracted twice", v)
		}
		seen[v] = true
	}
	if len(seen) != total {
		t.Fatalf("extracted %d keys, want %d", len(seen), total)
	}
}

func TestFIFOPerProducerOrderPreserved(t *testing.T) {
	// With a single consumer, each producer's elements must come out in
	// that producer's insertion order.
	q := NewFIFO()
	const producers = 4
	const perP = 2000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				q.Insert(uint64(p)<<32 | uint64(i))
			}
		}(p)
	}
	wg.Wait()
	lastSeen := make([]int64, producers)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	for {
		v, ok := q.ExtractMax()
		if !ok {
			break
		}
		p := int(v >> 32)
		seq := int64(v & 0xffffffff)
		if seq <= lastSeen[p] {
			t.Fatalf("producer %d order violated: %d after %d", p, seq, lastSeen[p])
		}
		lastSeen[p] = seq
	}
}

func TestNameOf(t *testing.T) {
	if got := NameOf(NewFIFO(), "x"); got != "fifo" {
		t.Fatalf("NameOf(FIFO) = %q", got)
	}
	if got := NameOf(unnamedQueue{}, "fallback"); got != "fallback" {
		t.Fatalf("NameOf(unnamed) = %q", got)
	}
}

type unnamedQueue struct{}

func (unnamedQueue) Insert(uint64)              {}
func (unnamedQueue) ExtractMax() (uint64, bool) { return 0, false }

func BenchmarkGlobalHeapMixed(b *testing.B) {
	q := NewGlobalHeap(1 << 20)
	for i := 0; i < 1<<16; i++ {
		q.Insert(xrand.Mix64(uint64(i)))
	}
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(uint64(b.N))
		for pb.Next() {
			if r.Intn(2) == 0 {
				q.Insert(r.Uint64())
			} else {
				q.ExtractMax()
			}
		}
	})
}

func BenchmarkFIFO(b *testing.B) {
	q := NewFIFO()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Insert(1)
			q.ExtractMax()
		}
	})
}
