package repro_test

import (
	"errors"
	"sort"
	"sync"
	"testing"

	"repro"
)

func TestPublicQuickstart(t *testing.T) {
	q := repro.New[string](repro.DefaultConfig())
	q.Insert(10, "low")
	q.Insert(99, "high")
	k, v, ok := q.TryExtractMax()
	if !ok || k != 99 || v != "high" {
		t.Fatalf("got (%d,%q,%v)", k, v, ok)
	}
}

func TestPublicStrictOrdering(t *testing.T) {
	q := repro.NewStrict[int]()
	keys := []uint64{5, 1, 9, 7, 3}
	for i, k := range keys {
		q.Insert(k, i)
	}
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	for _, w := range sorted {
		k, _, ok := q.TryExtractMax()
		if !ok || k != w {
			t.Fatalf("got (%d,%v), want %d", k, ok, w)
		}
	}
}

func TestPublicBlocking(t *testing.T) {
	q := repro.NewBlocking[int]()
	var wg sync.WaitGroup
	const n = 1000
	got := make([]int, 0, n)
	var mu sync.Mutex
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, v, ok := q.ExtractMax()
				if !ok {
					return
				}
				mu.Lock()
				got = append(got, v)
				done := len(got) == n
				mu.Unlock()
				if done {
					q.Close()
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		q.Insert(uint64(i), i)
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("consumed %d of %d", len(got), n)
	}
}

func TestPublicBatchAPI(t *testing.T) {
	q := repro.New[string](repro.DefaultConfig())
	q.InsertBatch([]uint64{30, 10, 20}, []string{"c", "a", "b"})
	q.InsertBatch([]uint64{40, 50}, nil)
	if q.Len() != 5 {
		t.Fatalf("Len = %d after batches", q.Len())
	}
	dst := make([]repro.Element[string], 0, 8)
	dst = q.ExtractBatch(dst, 8)
	if len(dst) != 5 {
		t.Fatalf("ExtractBatch returned %d elements", len(dst))
	}
	got := make([]uint64, len(dst))
	for i, e := range dst {
		got[i] = e.Key
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, w := range []uint64{10, 20, 30, 40, 50} {
		if got[i] != w {
			t.Fatalf("extracted keys %v, want 10..50", got)
		}
	}
	if dst = q.ExtractBatch(dst[:0], 1); len(dst) != 0 {
		t.Fatalf("drained queue returned %d elements", len(dst))
	}
}

func TestPublicConfigKnobs(t *testing.T) {
	cfg := repro.Config{
		Batch:     4,
		TargetLen: 8,
		Lock:      repro.LockTATAS,
		SetMode:   repro.SetModeArray,
	}
	q := repro.New[struct{}](cfg)
	for i := 0; i < 100; i++ {
		q.Insert(uint64(i), struct{}{})
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	st := q.Stats()
	if st.Elements != 100 {
		t.Fatalf("Stats.Elements = %d", st.Elements)
	}
	if repro.DefaultBatch != 48 || repro.DefaultTargetLen != 72 {
		t.Fatal("paper defaults changed")
	}
}

// TestPublicOpenKeyOnly drives the codec-less durable path through the
// facade: keys come back after a reopen, values as zero, and a bad
// durability config is an error matched by its sentinel.
func TestPublicOpenKeyOnly(t *testing.T) {
	cfg := repro.DefaultConfig()
	cfg.Durability = &repro.DurabilityConfig{WAL: true, GroupCommit: repro.DefaultGroupCommit}
	if _, _, err := repro.Open[string](cfg, nil); !errors.Is(err, repro.ErrDurabilityDir) {
		t.Fatalf("Open without a directory: %v, want ErrDurabilityDir", err)
	}
	cfg.Durability.Dir = t.TempDir()

	q, st, err := repro.Open[string](cfg, nil)
	if err != nil || st.Live() != 0 {
		t.Fatalf("fresh Open: state %+v, err %v", st, err)
	}
	q.InsertBatch([]uint64{3, 1, 2}, []string{"c", "a", "b"})
	if err := q.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if err := q.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	q, st, err = repro.Open[string](cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Live() != 3 || st.Vals != nil {
		t.Fatalf("reopen recovered %d keys, payloads %v; want 3 key-only", st.Live(), st.Vals)
	}
	for _, e := range q.Drain() {
		if e.Val != "" {
			t.Fatalf("key %d recovered value %q without a codec", e.Key, e.Val)
		}
	}
	if err := q.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Volatile configs open too, with no state.
	if q, st, err := repro.Open[string](repro.DefaultConfig(), nil); err != nil || st != nil || q == nil {
		t.Fatalf("volatile Open = (%v, %v, %v)", q, st, err)
	}
}
