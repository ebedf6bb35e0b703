package core

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/locks"
	"repro/internal/xrand"
)

// configs exercised by most behavioral tests: every combination that
// changes a code path.
func testConfigs() map[string]Config {
	return map[string]Config{
		"default":       DefaultConfig(),
		"default-array": withSetMode(DefaultConfig(), SetModeArray),
		"strict":        {Batch: 0, TargetLen: 16, Lock: locks.TATAS},
		"small-batch":   {Batch: 4, TargetLen: 8, Lock: locks.TATAS},
		"array":         {Batch: 16, TargetLen: 16, Lock: locks.TATAS, SetMode: SetModeArray},
		"leaky":         {Batch: 16, TargetLen: 16, Lock: locks.TATAS, Leaky: true},
		"std-lock":      {Batch: 16, TargetLen: 16, Lock: locks.Std, NoTryLock: true},
		"tas-lock":      {Batch: 16, TargetLen: 16, Lock: locks.TAS},
		"no-minswap":    {Batch: 16, TargetLen: 16, Lock: locks.TATAS, NoMinSwap: true},
		"no-forced":     {Batch: 16, TargetLen: 16, Lock: locks.TATAS, NoForcedInsert: true},
		"array-leaky":   {Batch: 16, TargetLen: 16, SetMode: SetModeArray, Leaky: true},
		"strict-array":  {Batch: 0, TargetLen: 16, SetMode: SetModeArray},
		"tiny-targets":  {Batch: 2, TargetLen: 2},
		"blocking-ring": {Batch: 8, TargetLen: 8, Blocking: true, RingSize: 8},
	}
}

// withSetMode returns cfg with its set implementation pinned to mode.
func withSetMode(cfg Config, mode SetMode) Config {
	cfg.SetMode = mode
	return cfg
}

// forEachSetMode runs f on the default configuration with list sets and
// again with array sets.
func forEachSetMode(t *testing.T, f func(t *testing.T, cfg Config)) {
	for _, mode := range []SetMode{SetModeList, SetModeArray} {
		t.Run(mode.String(), func(t *testing.T) { f(t, withSetMode(DefaultConfig(), mode)) })
	}
}

func forEachConfig(t *testing.T, f func(t *testing.T, cfg Config)) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) { f(t, cfg) })
	}
}

func TestEmptyQueue(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		q := New[int](cfg)
		if _, _, ok := q.TryExtractMax(); ok {
			t.Fatal("TryExtractMax on empty queue succeeded")
		}
		if !q.Empty() || q.Len() != 0 {
			t.Fatal("fresh queue not empty")
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSingleElement(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		q := New[string](cfg)
		q.Insert(42, "answer")
		if q.Empty() || q.Len() != 1 {
			t.Fatalf("Len = %d, want 1", q.Len())
		}
		k, v, ok := q.TryExtractMax()
		if !ok || k != 42 || v != "answer" {
			t.Fatalf("got (%d,%q,%v)", k, v, ok)
		}
		if _, _, ok := q.TryExtractMax(); ok {
			t.Fatal("queue should be empty")
		}
	})
}

func TestStrictModeExactOrder(t *testing.T) {
	// batch = 0 behaves exactly like the mound: every ExtractMax returns
	// the true maximum.
	for _, mode := range []SetMode{SetModeList, SetModeArray} {
		cfg := Config{Batch: 0, TargetLen: 8, SetMode: mode}
		q := New[int](cfg)
		r := xrand.New(17)
		const n = 5000
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = r.Uint64() % 100000
			q.Insert(keys[i], i)
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })
		for i, w := range keys {
			k, _, ok := q.TryExtractMax()
			if !ok {
				t.Fatalf("extract %d failed with %d elements left", i, n-i)
			}
			if k != w {
				t.Fatalf("strict extract %d = %d, want %d (set mode %v)", i, k, w, mode)
			}
		}
	}
}

func TestConservationSingleThread(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		q := New[int](cfg)
		r := xrand.New(5)
		n := 20000
		if raceEnabled {
			n /= 10
		}
		in := make(map[uint64]int)
		for i := 0; i < n; i++ {
			k := r.Uint64() % 50000
			q.Insert(k, i)
			in[k]++
		}
		if got := q.Len(); got != n {
			t.Fatalf("Len = %d, want %d", got, n)
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		out := make(map[uint64]int)
		for i := 0; i < n; i++ {
			k, _, ok := q.TryExtractMax()
			if !ok {
				t.Fatalf("extract %d failed; queue claimed empty with %d remaining", i, n-i)
			}
			out[k]++
		}
		if _, _, ok := q.TryExtractMax(); ok {
			t.Fatal("extra element extracted")
		}
		for k, c := range in {
			if out[k] != c {
				t.Fatalf("key %d: inserted %d, extracted %d", k, c, out[k])
			}
		}
	})
}

func TestExtractionNeverFailsWhenNonempty(t *testing.T) {
	// The headline practical feature: any interleaving of inserts and
	// extracts, extraction succeeds whenever elements remain.
	forEachConfig(t, func(t *testing.T, cfg Config) {
		if cfg.Blocking {
			t.Skip("blocking config covered separately")
		}
		q := New[int](cfg)
		r := xrand.New(99)
		size := 0
		ops := 30000
		if raceEnabled {
			ops /= 10
		}
		for i := 0; i < ops; i++ {
			if size == 0 || r.Intn(2) == 0 {
				q.Insert(r.Uint64()%1000, 0)
				size++
			} else {
				if _, _, ok := q.TryExtractMax(); !ok {
					t.Fatalf("op %d: extract failed with %d elements present", i, size)
				}
				size--
			}
		}
	})
}

func TestRelaxationAccuracyBound(t *testing.T) {
	// §3.7: within any window of batch+1 consecutive ExtractMax calls, the
	// maximum as of the window start must be returned (single-threaded).
	for _, batch := range []int{1, 4, 16, 48} {
		q := New[int](Config{Batch: batch, TargetLen: 2 * batch})
		r := xrand.New(uint64(batch))
		oracle := map[uint64]int{}
		const n = 4000
		for i := 0; i < n; i++ {
			k := r.Uint64() // unique with overwhelming probability
			q.Insert(k, 0)
			oracle[k]++
		}
		for len(oracle) > 0 {
			// Max at window start.
			var want uint64
			for k := range oracle {
				if k > want {
					want = k
				}
			}
			window := batch + 1
			if window > len(oracle) {
				window = len(oracle)
			}
			found := false
			for i := 0; i < window; i++ {
				k, _, ok := q.TryExtractMax()
				if !ok {
					t.Fatalf("premature empty with %d left", len(oracle))
				}
				if k == want {
					found = true
				}
				if oracle[k] == 0 {
					t.Fatalf("extracted %d more times than inserted", k)
				}
				oracle[k]--
				if oracle[k] == 0 {
					delete(oracle, k)
				}
			}
			if !found {
				t.Fatalf("batch=%d: window missed the maximum %d", batch, want)
			}
		}
	}
}

func TestFirstExtractIsTrueMaxAfterPrefill(t *testing.T) {
	// The first extraction always refills and must return the global max.
	forEachConfig(t, func(t *testing.T, cfg Config) {
		q := New[int](cfg)
		r := xrand.New(3)
		var want uint64
		for i := 0; i < 5000; i++ {
			k := r.Uint64()
			if k > want {
				want = k
			}
			q.Insert(k, 0)
		}
		k, _, ok := q.TryExtractMax()
		if !ok || k != want {
			t.Fatalf("first extract = %d, want max %d", k, want)
		}
	})
}

func TestInterleavedInvariants(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		q := New[int](cfg)
		r := xrand.New(1234)
		size := 0
		for i := 0; i < 5000; i++ {
			if size == 0 || r.Intn(3) > 0 {
				q.Insert(r.Uint64()%10000, i)
				size++
			} else {
				q.TryExtractMax()
				size--
			}
			if i%500 == 0 {
				if err := q.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPayloadIntegrity(t *testing.T) {
	// Payload must travel with its key through every path: regular insert,
	// forced insert, min-swap demotion, splits, pool, swaps.
	q := New[uint64](Config{Batch: 8, TargetLen: 8})
	r := xrand.New(55)
	n := 30000
	if raceEnabled {
		n /= 10
	}
	for i := 0; i < n; i++ {
		k := r.Uint64() % 100000
		q.Insert(k, k*2+1) // payload derived from key
		if i%3 == 0 {
			k, v, ok := q.TryExtractMax()
			if !ok {
				t.Fatal("unexpected empty")
			}
			if v != k*2+1 {
				t.Fatalf("payload mismatch: key %d carried %d", k, v)
			}
		}
	}
	for {
		k, v, ok := q.TryExtractMax()
		if !ok {
			break
		}
		if v != k*2+1 {
			t.Fatalf("payload mismatch on drain: key %d carried %d", k, v)
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		q := New[int](cfg)
		const dup = 500
		for i := 0; i < dup; i++ {
			q.Insert(7, i)
			q.Insert(7, i)
			q.TryExtractMax()
		}
		if got := q.Len(); got != dup {
			t.Fatalf("Len = %d, want %d", got, dup)
		}
		count := 0
		for {
			k, _, ok := q.TryExtractMax()
			if !ok {
				break
			}
			if k != 7 {
				t.Fatalf("got key %d", k)
			}
			count++
		}
		if count != dup {
			t.Fatalf("drained %d, want %d", count, dup)
		}
	})
}

func TestZeroAndMaxKeys(t *testing.T) {
	forEachSetMode(t, func(t *testing.T, cfg Config) {
		q := New[int](cfg)
		q.Insert(0, 1)
		q.Insert(^uint64(0), 2)
		q.Insert(1, 3)
		k, v, _ := q.TryExtractMax()
		if k != ^uint64(0) || v != 2 {
			t.Fatalf("got (%d,%d)", k, v)
		}
		keys := []uint64{}
		for {
			k, _, ok := q.TryExtractMax()
			if !ok {
				break
			}
			keys = append(keys, k)
		}
		if len(keys) != 2 {
			t.Fatalf("drained %d keys, want 2", len(keys))
		}
	})
}

func TestTreeExpansion(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4})
	r := xrand.New(9)
	treeOps := 50000
	if raceEnabled {
		treeOps /= 5
	}
	for i := 0; i < treeOps; i++ {
		q.Insert(r.Uint64()%1000000, 0)
	}
	st := q.Stats()
	if st.LeafLevel < 4 {
		t.Fatalf("tree did not expand: leafLevel = %d", st.LeafLevel)
	}
	if st.Elements != treeOps {
		t.Fatalf("Stats.Elements = %d, want %d", st.Elements, treeOps)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDescendingInsertPattern(t *testing.T) {
	// The mound's worst case (§3.7): strictly decreasing inserts. Forced
	// insertion must keep sets populated instead of devolving to size 1.
	q := New[int](Config{Batch: 16, TargetLen: 16})
	n := 50000
	if raceEnabled {
		n /= 10
	}
	for i := 0; i < n; i++ {
		q.Insert(uint64(n-i), 0)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.AllSets.Mean < 4 {
		t.Fatalf("descending pattern degraded sets: mean size %.2f", st.AllSets.Mean)
	}
	// Conservation too.
	if st.Elements != n {
		t.Fatalf("Elements = %d, want %d", st.Elements, n)
	}
}

func TestAscendingInsertPattern(t *testing.T) {
	q := New[int](Config{Batch: 16, TargetLen: 16})
	n := 50000
	if raceEnabled {
		n /= 10
	}
	for i := 0; i < n; i++ {
		q.Insert(uint64(i), 0)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
}

func TestSetStabilityExperiment(t *testing.T) {
	// Scaled-down §3.2 experiment: prefill, run insert/extract pairs, then
	// check that non-leaf set sizes concentrate near targetLen.
	const targetLen = 32
	q := New[int](Config{Batch: 32, TargetLen: targetLen})
	r := xrand.New(2019)
	prefill, pairs := 100000, 200000
	if raceEnabled {
		prefill, pairs = 20000, 40000
	}
	for i := 0; i < prefill; i++ {
		q.Insert(normKey(r), 0)
	}
	for i := 0; i < pairs; i++ {
		q.Insert(normKey(r), 0)
		q.TryExtractMax()
	}
	st := q.Stats()
	if st.NonLeafSets.Count == 0 {
		t.Fatal("no non-leaf nodes")
	}
	if st.NonLeafSets.Mean < targetLen/2 || st.NonLeafSets.Mean > 2*targetLen {
		t.Fatalf("non-leaf mean set size %.2f, want near %d", st.NonLeafSets.Mean, targetLen)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// normKey draws the paper's normal-distribution key: mean 2^19, sigma 2^17,
// clamped to [0, 2^20).
func normKey(r *xrand.Rand) uint64 {
	v := float64(1<<19) + r.NormFloat64()*float64(1<<17)
	if v < 0 {
		v = 0
	}
	if v >= 1<<20 {
		v = 1<<20 - 1
	}
	return uint64(v)
}

func TestQuickConservationProperty(t *testing.T) {
	f := func(opBytes []byte, seed uint64) bool {
		q := New[int](Config{Batch: 3, TargetLen: 4, Seed: seed | 1})
		r := xrand.New(seed)
		inserted := map[uint64]int{}
		extracted := map[uint64]int{}
		size := 0
		for _, op := range opBytes {
			if size == 0 || op < 160 {
				k := r.Uint64() % 64
				q.Insert(k, 0)
				inserted[k]++
				size++
			} else {
				k, _, ok := q.TryExtractMax()
				if !ok {
					return false
				}
				extracted[k]++
				size--
			}
		}
		if q.CheckInvariants() != nil {
			return false
		}
		for {
			k, _, ok := q.TryExtractMax()
			if !ok {
				break
			}
			extracted[k]++
		}
		for k, c := range inserted {
			if extracted[k] != c {
				return false
			}
		}
		for k, c := range extracted {
			if inserted[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLenWithPool(t *testing.T) {
	q := New[int](Config{Batch: 8, TargetLen: 8})
	for i := 0; i < 100; i++ {
		q.Insert(uint64(i), 0)
	}
	// Trigger a refill so elements sit in the pool.
	q.TryExtractMax()
	if got := q.Len(); got != 99 {
		t.Fatalf("Len = %d, want 99", got)
	}
	if q.Empty() {
		t.Fatal("Empty() true with 99 elements")
	}
}

// TestFreelistReuseInSafeMode: once a memory-safe queue's node population
// has settled, churn at the same size allocates no fresh lnode — every
// retired node passes a hazard scan and comes back.
func TestFreelistReuseInSafeMode(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops contexts between operations; their nodes wait for a finalizer")
	}
	met := NewMetrics()
	q := New[int](Config{Batch: 0, TargetLen: 8, Metrics: met}) // memory-safe by default
	churn := func() {
		for i := 0; i < 200; i++ {
			q.Insert(uint64(i), 0)
		}
		for i := 0; i < 200; i++ {
			q.TryExtractMax()
		}
	}
	// The first rounds allocate, until the nodes in circulation cover the
	// 200 resident plus a retired list one short of its scan.
	for round := 0; round < 10; round++ {
		churn()
	}
	warm := q.Snapshot()
	for round := 0; round < 10; round++ {
		churn()
	}
	after := q.Snapshot()
	if after.NodeCacheMiss != warm.NodeCacheMiss {
		t.Fatalf("steady churn allocated %d fresh lnodes", after.NodeCacheMiss-warm.NodeCacheMiss)
	}
	if after.NodeCacheHit-warm.NodeCacheHit < 2000 {
		t.Fatalf("only %d recycled allocations over 2000 inserts", after.NodeCacheHit-warm.NodeCacheHit)
	}
}

func TestLeakyModeSkipsFreelist(t *testing.T) {
	q := New[int](Config{Batch: 0, TargetLen: 8, Leaky: true})
	for i := 0; i < 500; i++ {
		q.Insert(uint64(i), 0)
	}
	for i := 0; i < 500; i++ {
		q.TryExtractMax()
	}
	if q.ad.dom != nil || len(q.ad.free.nodes) != 0 {
		t.Fatal("leaky mode built a hazard domain or populated the freelist")
	}
}

func TestDrain(t *testing.T) {
	q := New[int](Config{Batch: 4, TargetLen: 4})
	for i := 0; i < 100; i++ {
		q.Insert(uint64(i), i)
	}
	out := q.Drain()
	if len(out) != 100 {
		t.Fatalf("Drain returned %d elements", len(out))
	}
	if !q.Empty() {
		t.Fatal("queue nonempty after Drain")
	}
}

func TestPeekMax(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		q := New[int](cfg)
		if _, ok := q.PeekMax(); ok {
			t.Fatal("PeekMax on empty queue succeeded")
		}
		q.Insert(10, 0)
		q.Insert(30, 0)
		q.Insert(20, 0)
		if k, ok := q.PeekMax(); !ok || k != 30 {
			t.Fatalf("PeekMax = (%d,%v), want 30", k, ok)
		}
		// Peek must not remove.
		if q.Len() != 3 {
			t.Fatalf("Len = %d after PeekMax", q.Len())
		}
		// After a refill, the max may sit in the pool; PeekMax must see
		// the pool top.
		k1, _, _ := q.TryExtractMax()
		if k1 != 30 {
			t.Fatalf("extract = %d", k1)
		}
		if k, ok := q.PeekMax(); !ok || k != 20 {
			t.Fatalf("PeekMax after extract = (%d,%v), want 20", k, ok)
		}
	})
}

func TestForEach(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		q := New[int](cfg)
		const n = 2000
		want := map[uint64]int{}
		for i := 0; i < n; i++ {
			k := uint64(i)
			q.Insert(k, i)
			want[k] = i
		}
		// Move some elements into the pool so both sources are covered.
		q.TryExtractMax()
		delete(want, n-1) // first extract is the true max

		got := map[uint64]int{}
		q.ForEach(func(k uint64, v int) bool {
			got[k] = v
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("ForEach visited %d elements, want %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("key %d carried %d, want %d", k, got[k], v)
			}
		}
		// Early stop.
		count := 0
		q.ForEach(func(uint64, int) bool {
			count++
			return count < 10
		})
		if count != 10 {
			t.Fatalf("early stop visited %d", count)
		}
	})
}
