package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/wal"
)

// The queue has no log of its own: a durable single queue is a one-shard
// sharded.Queue over one core.Queue, which is what repro.Open returns and
// what the recovery gate and durable chaos open. These tests drive that
// single queue through a log round trip — single and batch ops, with and
// without payloads, a refused reopen — and check that recovery rebuilds
// the one core queue with exactly the logged multiset. The multi-shard
// versions are in internal/sharded.

// durableConfig is a one-shard queue logging to dir.
func durableConfig(dir string) sharded.Config {
	qcfg := core.DefaultConfig()
	qcfg.Durability = &core.DurabilityConfig{WAL: true, Dir: dir, GroupCommit: time.Millisecond}
	return sharded.Config{Shards: 1, Queue: qcfg}
}

// mustOpen is sharded.Open for tests that expect it to succeed.
func mustOpen[V any](t *testing.T, cfg sharded.Config, opts sharded.Options[V]) (*sharded.Queue[V], *wal.State) {
	t.Helper()
	q, st, err := sharded.Open(cfg, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return q, st
}

// valueFor is the deterministic key→payload function the valued tests
// use: recovery can check byte-exactness without tracking which instance
// of a key survived relaxation.
func valueFor(key uint64) []byte {
	return []byte(fmt.Sprintf("payload-%d-%d", key, key*0x9e3779b97f4a7c15))
}

func TestDurableRoundTrip(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	q, _ := mustOpen(t, cfg, sharded.Options[int]{})
	for i := uint64(1); i <= 64; i++ {
		q.Insert(i, int(i))
	}
	for i := 0; i < 16; i++ {
		if _, _, ok := q.TryExtractMax(); !ok {
			t.Fatal("extract failed on nonempty queue")
		}
	}
	if err := q.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL: %v", err)
	}
	if err := q.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	// All 64 inserts and 16 extracts were synced: recovery must land on
	// exactly the surviving 48. Which 48 depends on relaxation, so check
	// the multiset against the recovered state.
	r, st := mustOpen(t, cfg, sharded.Options[int]{})
	if st.Live() != 48 {
		t.Fatalf("recovered %d live keys, want 48 (state %+v)", st.Live(), st)
	}
	var got []uint64
	for _, e := range r.Drain() {
		got = append(got, e.Key)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, st.Keys) {
		t.Fatalf("rebuilt queue drained %d keys %v, recovered state had %d %v", len(got), got, st.Live(), st.Keys)
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL on recovered queue: %v", err)
	}
}

// TestDurableCodecRoundTrip inserts value-bearing elements through both
// the single and batch paths, extracts some, and checks reopening with
// the codec hands back byte-exact payloads for every survivor.
func TestDurableCodecRoundTrip(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	opts := sharded.Options[[]byte]{Codec: wal.BytesCodec{}}
	q, _ := mustOpen(t, cfg, opts)
	for i := uint64(1); i <= 32; i++ {
		q.Insert(i, valueFor(i))
	}
	var bkeys []uint64
	var bvals [][]byte
	for i := uint64(33); i <= 64; i++ {
		bkeys = append(bkeys, i)
		bvals = append(bvals, valueFor(i))
	}
	q.InsertBatch(bkeys, bvals)
	for i := 0; i < 16; i++ {
		if _, _, ok := q.TryExtractMax(); !ok {
			t.Fatal("extract failed on nonempty queue")
		}
	}
	if err := q.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	r, st := mustOpen(t, cfg, opts)
	if st.Live() != 48 {
		t.Fatalf("recovered %d live keys, want 48", st.Live())
	}
	if st.Vals == nil {
		t.Fatal("recovered state carries no payloads")
	}
	drained := r.Drain()
	if len(drained) != 48 {
		t.Fatalf("rebuilt queue drained %d elements, want 48", len(drained))
	}
	for _, e := range drained {
		if want := valueFor(e.Key); !bytes.Equal(e.Val, want) {
			t.Fatalf("key %d recovered payload %q, want %q", e.Key, e.Val, want)
		}
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedOpenClosesLog: Open opens the log (recovering as it does)
// before it decodes, so refusing a valued directory without a codec must
// close that log again — no group-commit goroutine, no open file left —
// and a later Open with the codec must recover exactly what Recover
// reported before the refusal, torn tail included.
func TestRefusedOpenClosesLog(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	opts := sharded.Options[[]byte]{Codec: wal.BytesCodec{}}
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
	if r, _, err := sharded.Open(cfg, sharded.Options[[]byte]{}); err == nil || r != nil {
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

// TestReopenIsRecover pins the footgun shut: there is no way to open a
// durability directory that skips what it holds. Open, insert n,
// acknowledge, close, Open again: the n elements are back, byte for byte,
// and once drained a third Open finds nothing.
func TestReopenIsRecover(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  sharded.Options[[]byte]
		value func(uint64) []byte
	}{
		{"valued", sharded.Options[[]byte]{Codec: wal.BytesCodec{}}, valueFor},
		{"key-only", sharded.Options[[]byte]{}, func(uint64) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 200
			cfg := durableConfig(t.TempDir())
			q, st := mustOpen(t, cfg, tc.opts)
			if st.Live() != 0 || q.Len() != 0 {
				t.Fatalf("fresh directory opened with %d live keys, Len %d", st.Live(), q.Len())
			}
			for k := uint64(1); k <= n; k++ {
				q.Insert(k, tc.value(k))
			}
			if err := q.SyncWAL(); err != nil {
				t.Fatal(err)
			}
			if err := q.CloseWAL(); err != nil {
				t.Fatal(err)
			}

			q, st = mustOpen(t, cfg, tc.opts)
			if st.Live() != n || q.Len() != n {
				t.Fatalf("reopened directory: %d live keys, Len %d, want %d", st.Live(), q.Len(), n)
			}
			if (st.Vals != nil) != (tc.opts.Codec != nil) {
				t.Fatalf("recovered payloads present=%v with codec=%v", st.Vals != nil, tc.opts.Codec != nil)
			}
			for _, e := range q.Drain() {
				if !bytes.Equal(e.Val, tc.value(e.Key)) {
					t.Fatalf("key %d came back with payload %q, want %q", e.Key, e.Val, tc.value(e.Key))
				}
			}
			if err := q.CloseWAL(); err != nil {
				t.Fatal(err)
			}

			q, st = mustOpen(t, cfg, tc.opts)
			if st.Live() != 0 || q.Len() != 0 {
				t.Fatalf("drained directory reopened with %d live keys, Len %d", st.Live(), q.Len())
			}
			if err := q.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
