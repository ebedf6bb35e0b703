package sharded

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// mustOpen is Open for tests that expect it to succeed.
func mustOpen[V any](t *testing.T, cfg Config, opts core.Options[V]) (*Queue[V], *wal.State) {
	t.Helper()
	q, st, err := Open(cfg, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return q, st
}

// durableConfig is an S-shard queue logging to dir.
func durableConfig(shards int, dir string) Config {
	qcfg := core.DefaultConfig()
	qcfg.Durability = &core.DurabilityConfig{WAL: true, Dir: dir, GroupCommit: time.Millisecond}
	return Config{Shards: shards, Queue: qcfg}
}

func TestDurableShardedRoundTrip(t *testing.T) {
	cfg := durableConfig(4, t.TempDir())

	q := New[int](cfg)
	const producers, perProducer = 4, 400
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Insert(uint64(p)<<32|uint64(i+1), 0)
			}
		}(p)
	}
	wg.Wait()
	extracted := make(map[uint64]bool)
	for i := 0; i < 300; i++ {
		k, _, ok := q.TryExtractMax()
		if !ok {
			t.Fatal("extract failed with elements across shards")
		}
		if extracted[k] {
			t.Fatalf("key %d extracted twice", k)
		}
		extracted[k] = true
	}
	if err := q.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL: %v", err)
	}
	if err := q.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	r, st := mustOpen(t, cfg, core.Options[int]{})
	wantLive := producers*perProducer - len(extracted)
	if st.Live() != wantLive {
		t.Fatalf("recovered %d live keys, want %d", st.Live(), wantLive)
	}
	var got []uint64
	for _, e := range r.Drain() {
		got = append(got, e.Key)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != wantLive {
		t.Fatalf("rebuilt sharded queue drained %d keys, want %d", len(got), wantLive)
	}
	for i, k := range st.Keys {
		if got[i] != k {
			t.Fatalf("rebuilt content diverges from recovered state at %d: %d != %d", i, got[i], k)
		}
		if extracted[k] {
			t.Fatalf("extracted (and synced) key %d resurrected by recovery", k)
		}
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL on recovered queue: %v", err)
	}
}

// TestShardedSharesOneLog asserts the shards write a single LSN space:
// records logged from different shards interleave in one file, and a
// second reopening sees no duplication.
func TestShardedSharesOneLog(t *testing.T) {
	cfg := durableConfig(3, t.TempDir())

	q := New[int](cfg)
	stats, ok := q.WALStats()
	if !ok {
		t.Fatal("WALStats not available on a Durability-built sharded queue")
	}
	if stats.Ops != 0 {
		t.Fatalf("fresh log has %d ops", stats.Ops)
	}
	keys := []uint64{1, 2, 3, 4, 5, 6}
	q.InsertBatch(keys, nil)
	if err := q.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		r, st := mustOpen(t, cfg, core.Options[int]{})
		if st.Live() != len(keys) {
			t.Fatalf("round %d recovered %d keys, want %d", round, st.Live(), len(keys))
		}
		if err := r.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
}
