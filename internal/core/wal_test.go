package core

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

func durableConfig(dir string) Config {
	cfg := DefaultConfig()
	cfg.Durability = &DurabilityConfig{WAL: true, Dir: dir, GroupCommit: time.Millisecond}
	return cfg
}

// mustOpen is Open for tests that expect it to succeed.
func mustOpen[V any](t *testing.T, cfg Config, opts Options[V]) (*Queue[V], *wal.State) {
	t.Helper()
	q, st, err := Open(cfg, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return q, st
}

// drainKeysSorted drains q and returns the keys sorted ascending.
func drainKeysSorted(q *Queue[int]) []uint64 {
	var keys []uint64
	for _, e := range q.Drain() {
		keys = append(keys, e.Key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	q := New[int](cfg)
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
	// the multiset against what the first queue would still hold.
	r, st := mustOpen(t, cfg, Options[int]{})
	if st.Live() != 48 {
		t.Fatalf("recovered %d live keys, want 48 (state %+v)", st.Live(), st)
	}
	got := drainKeysSorted(r)
	want := append([]uint64(nil), st.Keys...)
	if len(got) != len(want) {
		t.Fatalf("rebuilt queue drained %d keys, state had %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rebuilt queue content diverges from recovered state at %d: %d != %d", i, got[i], want[i])
		}
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL on recovered queue: %v", err)
	}
}

func TestDurableBatchPaths(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	q := New[int](cfg)
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	q.InsertBatch(keys, nil)
	out := q.ExtractBatch(nil, 30)
	if len(out) != 30 {
		t.Fatalf("ExtractBatch returned %d elements, want 30", len(out))
	}
	if err := q.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}
	r, st := mustOpen(t, cfg, Options[int]{})
	if st.Live() != 70 {
		t.Fatalf("recovered %d live keys after batch ops, want 70", st.Live())
	}
	if got := len(drainKeysSorted(r)); got != 70 {
		t.Fatalf("rebuilt queue drained %d keys, want 70", got)
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverDoesNotRelog reopens three times: if the rebuild re-logged
// the recovered keys, the next Open would double-count them.
func TestRecoverDoesNotRelog(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	q := New[int](cfg)
	q.Insert(1, 0)
	q.Insert(2, 0)
	if err := q.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		r, st := mustOpen(t, cfg, Options[int]{})
		if st.Live() != 2 {
			t.Fatalf("round %d recovered %d keys, want 2 (recovered keys were re-logged?)", round, st.Live())
		}
		if err := r.CloseWAL(); err != nil {
			t.Fatalf("round %d CloseWAL: %v", round, err)
		}
	}
}

// walRecorder is an in-memory WALPolicy asserting the ordering contract.
type walRecorder struct {
	mu       sync.Mutex
	inserts  map[uint64]int
	extracts map[uint64]int
	syncs    int
}

func newWALRecorder() *walRecorder {
	return &walRecorder{inserts: map[uint64]int{}, extracts: map[uint64]int{}}
}

func (r *walRecorder) AppendInsert(key uint64) {
	r.mu.Lock()
	r.inserts[key]++
	r.mu.Unlock()
}
func (r *walRecorder) AppendInsertBatch(keys []uint64) {
	r.mu.Lock()
	for _, k := range keys {
		r.inserts[k]++
	}
	r.mu.Unlock()
}
func (r *walRecorder) AppendInsertValue(key uint64, _ []byte) { r.AppendInsert(key) }
func (r *walRecorder) AppendInsertBatchValues(keys []uint64, _ [][]byte) {
	r.AppendInsertBatch(keys)
}
func (r *walRecorder) AppendExtract(key uint64) {
	r.mu.Lock()
	// The ordering contract: an extract append can never precede its
	// insert append.
	if r.extracts[key] >= r.inserts[key] {
		panic("extract appended before its insert")
	}
	r.extracts[key]++
	r.mu.Unlock()
}
func (r *walRecorder) AppendExtractBatch(keys []uint64) {
	for _, k := range keys {
		r.AppendExtract(k)
	}
}
func (r *walRecorder) Sync() error  { r.mu.Lock(); r.syncs++; r.mu.Unlock(); return nil }
func (r *walRecorder) Close() error { return r.Sync() }

// TestExternalWALPolicy exercises the Config.WAL seam with a recording
// policy under concurrency, asserting every mutation is logged and the
// insert-before-extract ordering holds per key.
func TestExternalWALPolicy(t *testing.T) {
	rec := newWALRecorder()
	cfg := DefaultConfig()
	cfg.WAL = rec
	q := New[int](cfg)

	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Insert(uint64(p)<<32|uint64(i), 0)
			}
		}(p)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Element[int]
			for i := 0; i < 200; i++ {
				buf = q.ExtractBatch(buf[:0], 5)
			}
		}()
	}
	wg.Wait()
	q.Drain()

	rec.mu.Lock()
	totalIns, totalExt := 0, 0
	for _, n := range rec.inserts {
		totalIns += n
	}
	for _, n := range rec.extracts {
		totalExt += n
	}
	rec.mu.Unlock()
	if totalIns != producers*perProducer {
		t.Fatalf("logged %d inserts, want %d", totalIns, producers*perProducer)
	}
	// After the full drain every insert must have a logged extract.
	if totalExt != totalIns {
		t.Fatalf("logged %d extracts for %d inserts after full drain", totalExt, totalIns)
	}
	if err := q.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL: %v", err)
	}
	rec.mu.Lock()
	syncs := rec.syncs
	rec.mu.Unlock()
	if syncs == 0 {
		t.Fatal("SyncWAL did not reach the policy")
	}
	// External policy: CloseWAL must sync, not close... both route to the
	// recorder here; just check it doesn't error.
	if err := q.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}
}

func TestAttachWALPanicsWhenAlreadyAttached(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WAL = newWALRecorder()
	q := New[int](cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("AttachWAL on an already-durable queue did not panic")
		}
	}()
	q.AttachWAL(newWALRecorder())
}
