package sharded

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

func valueFor(key uint64) []byte {
	return []byte(fmt.Sprintf("payload-%d-%d", key, key*0x9e3779b97f4a7c15))
}

// TestDurableShardedCodecRoundTrip drives concurrent value-bearing
// inserts through the sharded front-end and checks reopening restores
// every surviving payload byte-exactly. All shards share one log, so the
// values interleave in a single LSN space.
func TestDurableShardedCodecRoundTrip(t *testing.T) {
	cfg := durableConfig(4, t.TempDir())
	opts := core.Options[[]byte]{Codec: wal.BytesCodec{}}
	q, _ := mustOpen(t, cfg, opts)
	const producers, perProducer = 4, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				k := uint64(p)<<32 | uint64(i+1)
				q.Insert(k, valueFor(k))
			}
		}(p)
	}
	wg.Wait()
	extracted := make(map[uint64]bool)
	for i := 0; i < 250; i++ {
		k, v, ok := q.TryExtractMax()
		if !ok {
			t.Fatal("extract failed with elements across shards")
		}
		if !bytes.Equal(v, valueFor(k)) {
			t.Fatalf("live extract of key %d returned payload %q", k, v)
		}
		extracted[k] = true
	}
	if err := q.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL: %v", err)
	}
	if err := q.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	r, st := mustOpen(t, cfg, opts)
	wantLive := producers*perProducer - len(extracted)
	if st.Live() != wantLive {
		t.Fatalf("recovered %d live keys, want %d", st.Live(), wantLive)
	}
	drained := r.Drain()
	if len(drained) != wantLive {
		t.Fatalf("rebuilt sharded queue drained %d elements, want %d", len(drained), wantLive)
	}
	for _, e := range drained {
		if extracted[e.Key] {
			t.Fatalf("extracted (and synced) key %d resurrected by recovery", e.Key)
		}
		if want := valueFor(e.Key); !bytes.Equal(e.Val, want) {
			t.Fatalf("key %d recovered payload %q, want %q", e.Key, e.Val, want)
		}
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL on recovered queue: %v", err)
	}
}
