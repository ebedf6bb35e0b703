package mound

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xrand"
)

func TestEmpty(t *testing.T) {
	m := New()
	if _, ok := m.ExtractMax(); ok {
		t.Fatal("extract from empty mound succeeded")
	}
	if m.Len() != 0 {
		t.Fatal("empty mound has nonzero Len")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStrictOrderSingleThread(t *testing.T) {
	m := New()
	r := xrand.New(11)
	const n = 10000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64() % 1000000
		m.Insert(keys[i])
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })
	for i, w := range keys {
		got, ok := m.ExtractMax()
		if !ok {
			t.Fatalf("extract %d failed", i)
		}
		if got != w {
			t.Fatalf("extract %d = %d, want %d", i, got, w)
		}
	}
	if _, ok := m.ExtractMax(); ok {
		t.Fatal("mound not empty after draining")
	}
}

func TestDuplicates(t *testing.T) {
	m := New()
	for i := 0; i < 1000; i++ {
		m.Insert(5)
	}
	for i := 0; i < 1000; i++ {
		got, ok := m.ExtractMax()
		if !ok || got != 5 {
			t.Fatalf("extract %d = (%d,%v)", i, got, ok)
		}
	}
}

func TestDescendingInsertsDegradeToHeap(t *testing.T) {
	// §2.2: inserts ordered decreasing by value lead to lists of size 1.
	// This documents the weakness ZMSQ fixes; we assert the behaviour so a
	// regression in the baseline's faithfulness is caught.
	m := New()
	const n = 4096
	for i := n; i > 0; i-- {
		m.Insert(uint64(i))
	}
	if avg := avgListLen(m); avg > 1.5 {
		t.Fatalf("descending inserts should degrade lists to ~1, got avg %.2f", avg)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAscendingInsertsBuildLists(t *testing.T) {
	m := New()
	const n = 4096
	for i := 1; i <= n; i++ {
		m.Insert(uint64(i))
	}
	if avg := avgListLen(m); avg < 2 {
		t.Fatalf("ascending inserts should build long lists, got avg %.2f", avg)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHeapBehaviour(t *testing.T) {
	f := func(ops []byte, seed uint64) bool {
		m := New()
		r := xrand.New(seed)
		model := []uint64{}
		for _, op := range ops {
			if len(model) == 0 || op < 170 {
				k := r.Uint64() % 1000
				m.Insert(k)
				model = append(model, k)
				sort.Slice(model, func(i, j int) bool { return model[i] > model[j] })
			} else {
				got, ok := m.ExtractMax()
				if !ok || got != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		return m.CheckInvariants() == nil && m.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentConservation(t *testing.T) {
	m := New()
	const goroutines = 8
	perG := 10000
	if testing.Short() {
		perG = 2000
	}
	var wg sync.WaitGroup
	var extracted atomic.Int64
	var mu sync.Mutex
	seen := make(map[uint64]int)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := xrand.New(uint64(g) + 7)
			local := map[uint64]int{}
			for i := 0; i < perG; i++ {
				m.Insert(uint64(g)<<32 | uint64(i))
				if r.Intn(2) == 0 {
					if k, ok := m.ExtractMax(); ok {
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
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("concurrent mound stalled")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for {
		k, ok := m.ExtractMax()
		if !ok {
			break
		}
		seen[k]++
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("got %d distinct keys, want %d", len(seen), goroutines*perG)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d seen %d times", k, c)
		}
	}
}

func TestExtractNeverFailsWhenNonempty(t *testing.T) {
	m := New()
	r := xrand.New(13)
	size := 0
	for i := 0; i < 20000; i++ {
		if size == 0 || r.Intn(2) == 0 {
			m.Insert(r.Uint64() % 1000)
			size++
		} else {
			if _, ok := m.ExtractMax(); !ok {
				t.Fatalf("op %d: extract failed with %d present", i, size)
			}
			size--
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	m := New()
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(uint64(b.N))
		for pb.Next() {
			m.Insert(r.Uint64() % (1 << 20))
		}
	})
}

func BenchmarkMixed(b *testing.B) {
	m := New()
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

// avgListLen reports the mean list length over nonempty nodes — the
// statistic §2.2 uses to show the mound devolving into a heap.
func avgListLen(m *Mound) float64 {
	var sum, n int64
	top := int(m.leafLevel.Load())
	for l := 0; l <= top; l++ {
		nodes := m.levels[l]
		for i := range nodes {
			if s := nodes[i].size.Load(); s > 0 {
				sum += s
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
