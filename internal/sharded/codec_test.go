package sharded

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/wal"
)

func valueFor(key uint64) []byte {
	return []byte(fmt.Sprintf("payload-%d-%d", key, key*0x9e3779b97f4a7c15))
}

// TestDurableShardedCodecRoundTrip drives concurrent value-bearing
// inserts — single and batch — through the sharded front-end and checks
// reopening restores every surviving payload byte-exactly. All shards
// share one log, so the values interleave in a single LSN space.
func TestDurableShardedCodecRoundTrip(t *testing.T) {
	cfg := durableConfig(4, t.TempDir())
	opts := Options[[]byte]{Codec: wal.BytesCodec{}}
	q, _ := mustOpen(t, cfg, opts)
	const producers, perProducer = 4, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			keys := make([]uint64, 0, perProducer/2)
			vals := make([][]byte, 0, perProducer/2)
			for i := 0; i < perProducer; i++ {
				k := uint64(p)<<32 | uint64(i+1)
				if i%2 == 0 {
					q.Insert(k, valueFor(k))
					continue
				}
				keys, vals = append(keys, k), append(vals, valueFor(k))
			}
			q.InsertBatch(keys, vals)
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

// TestRecoverValuedWithoutCodecFails pins the safety property: a
// directory holding value payloads must not open through the key-only
// path, which would silently discard acknowledged data — and the refusal
// must leave the directory openable with the codec.
func TestRecoverValuedWithoutCodecFails(t *testing.T) {
	cfg := durableConfig(1, t.TempDir())
	opts := Options[[]byte]{Codec: wal.BytesCodec{}}
	q, _ := mustOpen(t, cfg, opts)
	q.Insert(7, []byte("precious"))
	if err := q.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if q, _, err := Open(cfg, Options[[]byte]{}); err == nil || q != nil {
		t.Fatalf("Open without a codec accepted a valued directory (queue %v, err %v)", q, err)
	}
	r, st := mustOpen(t, cfg, opts)
	if _, v, ok := r.TryExtractMax(); st.Live() != 1 || !ok || string(v) != "precious" {
		t.Fatalf("after the refused Open the directory recovered %d keys, value %q", st.Live(), v)
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedOpenClosesLog: Open opens the log (recovering as it does)
// before it decodes, so refusing a valued directory without a codec must
// close that log again — no group-commit goroutine, no open file left —
// and a later Open with the codec must recover exactly what Recover
// reported before the refusal, torn tail included, every payload intact.
func TestRefusedOpenClosesLog(t *testing.T) {
	cfg := durableConfig(3, t.TempDir())
	opts := Options[[]byte]{Codec: wal.BytesCodec{}}
	q, _ := mustOpen(t, cfg, opts)
	for k := uint64(1); k <= 40; k++ {
		q.Insert(k, valueFor(k))
	}
	q.ExtractBatch(nil, 5)
	if err := q.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(cfg.Queue.Durability.Dir, "queue.wal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0}); err != nil { // a torn frame header
		t.Fatal(err)
	}
	f.Close()
	want, err := wal.Recover(cfg.Queue.Durability.Dir)
	if err != nil || want.TornOffset < 0 || want.Live() != 35 {
		t.Fatalf("Recover = (%+v, %v), want 35 keys and a torn tail", want, err)
	}

	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	if r, _, err := Open(cfg, Options[[]byte]{}); err == nil || r != nil {
		t.Fatalf("Open without a codec accepted a valued directory (queue %v, err %v)", r, err)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("refused Open left %d goroutines running, %d before", n, goroutines)
	}
	if n := openFDs(t); n > fds {
		t.Fatalf("refused Open left %d files open, %d before", n, fds)
	}

	r, got := mustOpen(t, cfg, opts)
	if !reflect.DeepEqual(got.Keys, want.Keys) || !reflect.DeepEqual(got.Vals, want.Vals) {
		t.Fatalf("Open after the refusal recovered %d keys, Recover reported %d before it", got.Live(), want.Live())
	}
	for _, e := range r.Drain() {
		if want := valueFor(e.Key); !bytes.Equal(e.Val, want) {
			t.Fatalf("key %d recovered payload %q, want %q", e.Key, e.Val, want)
		}
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// openFDs counts the process's open file descriptors, skipping the test
// where /proc/self/fd does not exist.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(ents)
}
