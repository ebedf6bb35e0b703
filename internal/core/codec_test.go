package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/wal"
)

// valueFor is the deterministic key→payload function the valued tests
// use: recovery can check byte-exactness without tracking which instance
// of a key survived relaxation.
func valueFor(key uint64) []byte {
	return []byte(fmt.Sprintf("payload-%d-%d", key, key*0x9e3779b97f4a7c15))
}

// TestDurableCodecRoundTrip inserts value-bearing elements through both
// the single and batch paths, extracts some, and checks reopening with
// the codec hands back byte-exact payloads for every survivor.
func TestDurableCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	q, _ := mustOpen(t, cfg, Options[[]byte]{Codec: wal.BytesCodec{}})
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

	r, st := mustOpen(t, cfg, Options[[]byte]{Codec: wal.BytesCodec{}})
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

// TestRecoverValuedWithoutCodecFails pins the safety property: a
// directory holding value payloads must not open through the key-only
// path, which would silently discard acknowledged data — and the refusal
// must leave the directory openable with the codec.
func TestRecoverValuedWithoutCodecFails(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	q, _ := mustOpen(t, cfg, Options[[]byte]{Codec: wal.BytesCodec{}})
	q.Insert(7, []byte("precious"))
	if err := q.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if q, _, err := Open(cfg, Options[[]byte]{}); err == nil || q != nil {
		t.Fatalf("Open without a codec accepted a valued directory (queue %v, err %v)", q, err)
	}
	r, st := mustOpen(t, cfg, Options[[]byte]{Codec: wal.BytesCodec{}})
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
// reported before the refusal, torn tail included.
func TestRefusedOpenClosesLog(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	q, _ := mustOpen(t, cfg, Options[[]byte]{Codec: wal.BytesCodec{}})
	for k := uint64(1); k <= 40; k++ {
		q.Insert(k, valueFor(k))
	}
	q.ExtractBatch(nil, 5)
	if err := q.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(cfg.Durability.Dir, "queue.wal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0}); err != nil { // a torn frame header
		t.Fatal(err)
	}
	f.Close()
	want, err := wal.Recover(cfg.Durability.Dir)
	if err != nil || want.TornOffset < 0 {
		t.Fatalf("Recover = (%+v, %v), want a state with a torn tail", want, err)
	}

	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	if _, _, err := Open(cfg, Options[[]byte]{}); err == nil {
		t.Fatal("Open without a codec accepted a valued directory")
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("refused Open left %d goroutines running, %d before", n, goroutines)
	}
	if n := openFDs(t); n > fds {
		t.Fatalf("refused Open left %d files open, %d before", n, fds)
	}

	r, got := mustOpen(t, cfg, Options[[]byte]{Codec: wal.BytesCodec{}})
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

// TestKeyOnlyQueueStaysV1 pins bit-format stability: a durable queue
// without a codec must produce a log a v1 reader understands — no
// valued records, Vals nil on recovery.
func TestKeyOnlyQueueStaysV1(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	q := New[int](cfg)
	q.Insert(1, 10)
	q.InsertBatch([]uint64{2, 3}, []int{20, 30})
	if err := q.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	st, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Vals != nil {
		t.Fatalf("key-only queue produced valued records: %v", st.Vals)
	}
	if st.Live() != 3 {
		t.Fatalf("recovered %d keys, want 3", st.Live())
	}
}
