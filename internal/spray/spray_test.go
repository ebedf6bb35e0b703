package spray

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
	s := New(4)
	if _, ok := s.ExtractMax(); ok {
		t.Fatal("extract from empty spraylist succeeded")
	}
}

func TestStrictSingleThread(t *testing.T) {
	// p == 1: exact DeleteMax semantics.
	s := New(1)
	r := xrand.New(42)
	const n = 5000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64() >> 1
		s.Insert(keys[i])
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })
	for i, w := range keys {
		got, ok := s.ExtractMax()
		if !ok {
			t.Fatalf("extract %d failed", i)
		}
		if got != w {
			t.Fatalf("extract %d = %d, want %d", i, got, w)
		}
	}
	if _, ok := s.ExtractMax(); ok {
		t.Fatal("list not empty after drain")
	}
}

func TestSprayConservation(t *testing.T) {
	// p > 1: extraction may fail spuriously but with retries must return
	// exactly the inserted multiset.
	s := New(8)
	r := xrand.New(7)
	const n = 5000
	in := map[uint64]int{}
	for i := 0; i < n; i++ {
		k := r.Uint64() >> 1
		s.Insert(k)
		in[k]++
	}
	out := map[uint64]int{}
	extracted := 0
	for extracted < n {
		k, ok := s.ExtractMax()
		if !ok {
			continue // spray landed on claimed nodes; retry
		}
		out[k]++
		extracted++
	}
	for k, c := range in {
		if out[k] != c {
			t.Fatalf("key %d: in %d, out %d", k, c, out[k])
		}
	}
	if _, ok := s.ExtractMax(); ok {
		t.Fatal("extra element after conservation drain")
	}
}

func TestSprayReturnsHighPriorityKeys(t *testing.T) {
	// Extractions should come from near the front: with 10k elements and
	// p=8, every spray must land well inside the top quarter.
	s := New(8)
	const n = 10000
	for i := 0; i < n; i++ {
		s.Insert(uint64(i))
	}
	got := 0
	for got < 100 {
		k, ok := s.ExtractMax()
		if !ok {
			continue
		}
		got++
		if k < n/2 {
			t.Fatalf("spray returned rank-%d key %d — far outside the spray window", n-int(k), k)
		}
	}
}

func TestSprayAccuracyDegradesWithThreads(t *testing.T) {
	// The paper's central contrast: SprayList accuracy is a function of p.
	// Measure the mean rank of the first extraction over many fresh lists.
	meanRank := func(p int) float64 {
		const n = 4096
		const trials = 40
		total := 0.0
		for trial := 0; trial < trials; trial++ {
			s := New(p)
			s.seed.Store(uint64(trial * 100))
			for i := 0; i < n; i++ {
				s.Insert(uint64(i))
			}
			for {
				k, ok := s.ExtractMax()
				if ok {
					total += float64(n - 1 - int(k))
					break
				}
			}
		}
		return total / trials
	}
	r1 := meanRank(1)
	r64 := meanRank(64)
	if r1 != 0 {
		t.Fatalf("p=1 first extraction mean rank %.2f, want 0", r1)
	}
	if r64 < 1 {
		t.Fatalf("p=64 should be relaxed, mean rank %.2f", r64)
	}
}

func TestInsertDuplicates(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		s.Insert(9)
	}
	for i := 0; i < 100; i++ {
		k, ok := s.ExtractMax()
		if !ok || k != 9 {
			t.Fatalf("extract %d = (%d,%v)", i, k, ok)
		}
	}
}

func TestQuickStrictMatchesModel(t *testing.T) {
	f := func(ops []byte, seed uint64) bool {
		s := New(1)
		r := xrand.New(seed)
		model := []uint64{}
		for _, op := range ops {
			if len(model) == 0 || op < 170 {
				k := r.Uint64() % 512
				s.Insert(k)
				model = append(model, k)
				sort.Slice(model, func(i, j int) bool { return model[i] > model[j] })
			} else {
				got, ok := s.ExtractMax()
				if !ok || got != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentConservation(t *testing.T) {
	const goroutines = 8
	perG := 10000
	if testing.Short() {
		perG = 2000
	}
	s := New(goroutines)
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[uint64]int{}
	var extracted atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := xrand.New(uint64(g) + 3)
			local := map[uint64]int{}
			for i := 0; i < perG; i++ {
				s.Insert(uint64(g)<<32 | uint64(i))
				if r.Intn(2) == 0 {
					if k, ok := s.ExtractMax(); ok {
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
		t.Fatal("concurrent spray stalled")
	}
	// Drain: repeated failures on a nonempty list are allowed; only stop
	// when the list reports empty via strict scan.
	strict := New(1)
	_ = strict
	misses := 0
	for {
		k, ok := s.ExtractMax()
		if ok {
			seen[k]++
			misses = 0
			continue
		}
		misses++
		if misses > 1000 {
			break
		}
	}
	total := goroutines * perG
	if len(seen) != total {
		t.Fatalf("saw %d distinct keys, want %d", len(seen), total)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d extracted %d times", k, c)
		}
	}
}

func TestConcurrentInsertOnly(t *testing.T) {
	s := New(8)
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Insert(uint64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	// Verify every key is reachable via strict draining.
	s.threads = 1
	count := 0
	for {
		_, ok := s.ExtractMax()
		if !ok {
			break
		}
		count++
	}
	if count != goroutines*perG {
		t.Fatalf("drained %d, want %d", count, goroutines*perG)
	}
}

func TestRandomHeightDistribution(t *testing.T) {
	r := xrand.New(5)
	counts := make([]int, maxHeight+1)
	const n = 100000
	for i := 0; i < n; i++ {
		h := randomHeight(r)
		if h < 1 || h > maxHeight {
			t.Fatalf("height %d out of range", h)
		}
		counts[h]++
	}
	// Height 1 should be about half.
	if counts[1] < n*4/10 || counts[1] > n*6/10 {
		t.Fatalf("height-1 fraction %d/%d, want about half", counts[1], n)
	}
}

func BenchmarkInsert(b *testing.B) {
	s := New(8)
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(uint64(b.N))
		for pb.Next() {
			s.Insert(r.Uint64() % (1 << 20))
		}
	})
}

func BenchmarkMixed(b *testing.B) {
	s := New(8)
	for i := 0; i < 1<<16; i++ {
		s.Insert(xrand.Mix64(uint64(i)) % (1 << 20))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(uint64(b.N))
		for pb.Next() {
			if r.Intn(2) == 0 {
				s.Insert(r.Uint64() % (1 << 20))
			} else {
				s.ExtractMax()
			}
		}
	})
}
