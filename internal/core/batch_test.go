package core

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/contract"
	"repro/internal/xrand"
)

// Tests for the batch-native API. The load-bearing property: a history
// produced through InsertBatch/ExtractBatch must satisfy exactly the same
// relaxation contract (internal/contract) as the equivalent sequence of
// single-element calls — conservation, never-fails, and the b+1 window.

func batchTestConfigs() []struct {
	name string
	cfg  Config
} {
	leaky := DefaultConfig()
	leaky.Leaky = true
	array := withSetMode(DefaultConfig(), SetModeArray)
	strict := DefaultConfig()
	strict.Batch = 0
	small := Config{Batch: 4, TargetLen: 6}
	return []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"leaky", leaky},
		{"array", array},
		{"array-leaky", withSetMode(leaky, SetModeArray)},
		{"strict", strict},
		{"array-strict", withSetMode(strict, SetModeArray)},
		{"small", small},
	}
}

// TestBatchContract is the property test: randomized batch sizes through
// InsertBatch, then a single strict consumer draining via ExtractBatch,
// verified by the contract checker with Slack 0 (exact, since the
// recorded order is the real order).
func TestBatchContract(t *testing.T) {
	for _, tc := range batchTestConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := tc.cfg
				q := New[int](cfg)
				checker := contract.NewChecker(contract.Config{Batch: cfg.Batch, Slack: 0})
				rec := checker.Recorder()
				r := xrand.New(seed)

				// Insert ~4096 elements in randomly sized batches (including
				// size 1 and empty), with duplicate-heavy keys.
				const total = 4096
				keys := make([]uint64, 0, 128)
				vals := make([]int, 0, 128)
				for inserted := 0; inserted < total; {
					sz := int(r.Uint64n(128))
					if sz > total-inserted {
						sz = total - inserted
					}
					keys, vals = keys[:0], vals[:0]
					for j := 0; j < sz; j++ {
						keys = append(keys, r.Uint64()>>52)
					}
					if r.Uint64n(2) == 0 {
						for j := 0; j < sz; j++ {
							vals = append(vals, inserted+j)
						}
						for _, k := range keys {
							rec.WillInsert(k)
						}
						q.InsertBatch(keys, vals)
					} else {
						for _, k := range keys {
							rec.WillInsert(k)
						}
						q.InsertBatch(keys, nil)
					}
					for j := 0; j < sz; j++ {
						rec.DidInsert()
					}
					inserted += sz
				}

				// Strict drain through randomly sized ExtractBatch calls.
				checker.BeginStrict()
				dst := make([]Element[int], 0, 128)
				for {
					want := int(r.Uint64n(127)) + 1
					dst = q.ExtractBatch(dst[:0], want)
					for _, e := range dst {
						rec.WillExtract()
						rec.DidExtract(e.Key, true)
					}
					if len(dst) < want {
						break // observed empty under the root lock
					}
				}
				checker.EndStrict()

				// The queue really is empty now; a failing extraction must
				// not trip the never-fails check.
				rec.WillExtract()
				_, _, ok := q.TryExtractMax()
				rec.DidExtract(0, ok)
				if ok {
					t.Fatalf("seed %d: extraction succeeded after ExtractBatch observed empty", seed)
				}

				rep, err := checker.Verify()
				if err != nil {
					t.Fatalf("seed %d: contract violated: %v\nreport: %+v", seed, err, rep)
				}
				if rep.Remaining != 0 {
					t.Fatalf("seed %d: %d elements lost", seed, rep.Remaining)
				}
				if rep.StrictExtracts != total {
					t.Fatalf("seed %d: strict extracts = %d, want %d", seed, rep.StrictExtracts, total)
				}
			}
		})
	}
}

// TestBatchConcurrentConservation hammers InsertBatch/ExtractBatch from
// concurrent producers and consumers and checks multiset conservation and
// structural invariants afterwards.
func TestBatchConcurrentConservation(t *testing.T) {
	for _, tc := range batchTestConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			q := New[int](tc.cfg)
			const (
				producers = 4
				consumers = 4
				perProd   = 8192
			)
			results := make(chan []uint64, consumers)
			var wg sync.WaitGroup
			var prodDone sync.WaitGroup
			prodDone.Add(producers)
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					defer prodDone.Done()
					r := xrand.New(uint64(p) + 1)
					keys := make([]uint64, 0, 64)
					for n := 0; n < perProd; {
						sz := int(r.Uint64n(64)) + 1
						if sz > perProd-n {
							sz = perProd - n
						}
						keys = keys[:0]
						for j := 0; j < sz; j++ {
							// Per-producer-unique keys so conservation is exact.
							keys = append(keys, uint64(p)<<32|uint64(n+j))
						}
						q.InsertBatch(keys, nil)
						n += sz
					}
				}(p)
			}
			done := make(chan struct{})
			go func() { prodDone.Wait(); close(done) }()
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					r := xrand.New(uint64(c) + 100)
					got := make([]uint64, 0, perProd)
					dst := make([]Element[int], 0, 64)
					for {
						want := int(r.Uint64n(64)) + 1
						dst = q.ExtractBatch(dst[:0], want)
						for _, e := range dst {
							got = append(got, e.Key)
						}
						if len(dst) < want {
							select {
							case <-done:
								// Producers finished and we just saw empty;
								// one final sweep then stop.
								dst = q.ExtractBatch(dst[:0], perProd)
								for _, e := range dst {
									got = append(got, e.Key)
								}
								if len(dst) == 0 {
									results <- got
									return
								}
							default:
							}
						}
					}
				}(c)
			}
			wg.Wait()
			close(results)
			seen := map[uint64]int{}
			for got := range results {
				for _, k := range got {
					seen[k]++
				}
			}
			// Final single-threaded sweep for anything left between the last
			// consumer's empty observation and another's in-flight insert.
			for {
				k, _, ok := q.TryExtractMax()
				if !ok {
					break
				}
				seen[k]++
			}
			want := producers * perProd
			if len(seen) != want {
				t.Fatalf("extracted %d distinct keys, want %d", len(seen), want)
			}
			for k, n := range seen {
				if n != 1 {
					t.Fatalf("key %d extracted %d times", k, n)
				}
			}
			if err := q.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExtractBatchStrictOrder: with Batch = 0 every root grab is a single
// element — the true maximum — so a batch drain is in exact descending
// order.
func TestExtractBatchStrictOrder(t *testing.T) {
	forEachSetMode(t, func(t *testing.T, cfg Config) {
		cfg.Batch = 0
		q := New[int](cfg)
		r := xrand.New(7)
		keys := make([]uint64, 2048)
		for i := range keys {
			keys[i] = r.Uint64() >> 40
		}
		q.InsertBatch(keys, nil)

		got := q.ExtractBatch(nil, len(keys)+10)
		if len(got) != len(keys) {
			t.Fatalf("extracted %d, want %d", len(got), len(keys))
		}
		sorted := append([]uint64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		for i, e := range got {
			if e.Key != sorted[i] {
				t.Fatalf("position %d: got %d, want %d", i, e.Key, sorted[i])
			}
		}
	})
}

func TestInsertBatchVals(t *testing.T) {
	forEachSetMode(t, func(t *testing.T, cfg Config) {
		q := New[string](cfg)
		q.InsertBatch([]uint64{3, 1, 2}, []string{"c", "a", "b"})
		want := map[uint64]string{1: "a", 2: "b", 3: "c"}
		for i := 0; i < 3; i++ {
			k, v, ok := q.TryExtractMax()
			if !ok || want[k] != v {
				t.Fatalf("got (%d,%q,%v), want val %q", k, v, ok, want[k])
			}
		}

		// nil vals inserts zero payloads.
		q.InsertBatch([]uint64{9}, nil)
		if _, v, ok := q.TryExtractMax(); !ok || v != "" {
			t.Fatalf("nil-vals payload = %q, want zero value", v)
		}

		// Empty batch is a no-op.
		q.InsertBatch(nil, nil)
		if q.Len() != 0 {
			t.Fatalf("Len = %d after empty batch", q.Len())
		}
	})
}

func TestInsertBatchLengthMismatchPanics(t *testing.T) {
	q := New[int](DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on len(vals) != len(keys)")
		}
	}()
	q.InsertBatch([]uint64{1, 2}, []int{1})
}

func TestExtractBatchEdgeCases(t *testing.T) {
	forEachSetMode(t, func(t *testing.T, cfg Config) {
		q := New[int](cfg)
		if got := q.ExtractBatch(nil, 0); got != nil {
			t.Fatalf("n=0 returned %v", got)
		}
		if got := q.ExtractBatch(nil, -3); got != nil {
			t.Fatalf("n<0 returned %v", got)
		}
		if got := q.ExtractBatch(nil, 5); len(got) != 0 {
			t.Fatalf("empty queue returned %d elements", len(got))
		}

		// dst is appended to, not overwritten.
		q.Insert(42, 1)
		pre := []Element[int]{{Key: 7, Val: 0}}
		got := q.ExtractBatch(pre, 4)
		if len(got) != 2 || got[0].Key != 7 || got[1].Key != 42 {
			t.Fatalf("append semantics broken: %v", got)
		}
	})
}
