package sharded

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// mustOpen is Open for tests that expect it to succeed.
func mustOpen[V any](t *testing.T, cfg Config, opts Options[V]) (*Queue[V], *wal.State) {
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

	r, st := mustOpen(t, cfg, Options[int]{})
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
		r, st := mustOpen(t, cfg, Options[int]{})
		if st.Live() != len(keys) {
			t.Fatalf("round %d recovered %d keys, want %d", round, st.Live(), len(keys))
		}
		if err := r.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableBatchPaths(t *testing.T) {
	cfg := durableConfig(3, t.TempDir())
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
	if got := len(r.Drain()); got != 70 {
		t.Fatalf("rebuilt queue drained %d keys, want 70", got)
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverDoesNotRelog reopens three times: if the rebuild re-logged
// the recovered keys, the next Open would double-count them.
func TestRecoverDoesNotRelog(t *testing.T) {
	cfg := durableConfig(2, t.TempDir())
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
		if s, _ := r.WALStats(); s.Records != 0 {
			t.Fatalf("round %d: opening appended %d records", round, s.Records)
		}
		if err := r.CloseWAL(); err != nil {
			t.Fatalf("round %d CloseWAL: %v", round, err)
		}
	}
}

// TestKeyOnlyQueueStaysV1 pins bit-format stability: a durable queue
// without a codec must produce a log a v1 reader understands — no
// valued records, Vals nil on recovery — even when it is handed values.
func TestKeyOnlyQueueStaysV1(t *testing.T) {
	dir := t.TempDir()
	q := New[int](durableConfig(2, dir))
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

// TestBatchCallsWriteOneRecord: a batch call on a durable queue is one
// log record however many elements it moves, through the queue and
// through a Handle alike — the front-end logs at its own call boundary,
// not once per element it takes from a shard.
func TestBatchCallsWriteOneRecord(t *testing.T) {
	const n = 64
	q, _ := mustOpen(t, durableConfig(4, t.TempDir()), Options[[]byte]{Codec: wal.BytesCodec{}})
	defer q.CloseWAL()
	h := q.NewHandle()
	keys := make([]uint64, 2*n)
	vals := make([][]byte, 2*n)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = valueFor(keys[i])
	}
	dst := make([]core.Element[[]byte], 0, n)
	for _, step := range []struct {
		name string
		call func() int // performs the call, returns the elements it moved
	}{
		{"Queue.InsertBatch", func() int { q.InsertBatch(keys[:n], vals[:n]); return n }},
		{"Handle.InsertBatch", func() int { h.InsertBatch(keys[n:], vals[n:]); return n }},
		{"Queue.ExtractBatch", func() int { return len(q.ExtractBatch(dst[:0], n)) }},
		{"Handle.ExtractBatch", func() int { return len(h.ExtractBatch(dst[:0], n)) }},
	} {
		before, _ := q.WALStats()
		moved := step.call()
		after, _ := q.WALStats()
		if moved != n {
			t.Fatalf("%s moved %d elements, want %d", step.name, moved, n)
		}
		if recs, ops := after.Records-before.Records, after.Ops-before.Ops; recs != 1 || ops != n {
			t.Errorf("%s of %d elements added %d records and %d ops to the log, want 1 and %d", step.name, n, recs, ops, n)
		}
	}
}

// Record kinds of the wal format (internal/wal/record.go) that log
// extractions; every other kind logs inserts.
const (
	walExtract      = 2
	walExtractBatch = 4
)

// TestLogOrderingContract checks the ordering contract where the logging
// now lives: concurrent producers and consumers — pooled calls and
// Handles, single and batch operations — run on a durable queue, and the
// log is then walked record by record. No key's running count may go
// negative at any record (an extraction logged before its insertion), and
// the multiset the log ends with must be exactly what the queue holds.
func TestLogOrderingContract(t *testing.T) {
	dir := t.TempDir()
	q, _ := mustOpen(t, durableConfig(3, dir), Options[int]{})
	const perWorker = 600
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var h *Handle[int]
			if p%2 == 1 {
				h = q.NewHandle()
			}
			keys := make([]uint64, 0, 8)
			for i := 0; i < perWorker; i++ {
				k := uint64(p)<<32 | uint64(i+1)
				switch {
				case i%3 != 0:
					keys = append(keys, k)
					if len(keys) == cap(keys) {
						if h != nil {
							h.InsertBatch(keys, nil)
						} else {
							q.InsertBatch(keys, nil)
						}
						keys = keys[:0]
					}
				case h != nil:
					h.InsertBatch([]uint64{k}, nil)
				default:
					q.Insert(k, 0)
				}
			}
			if h != nil {
				h.InsertBatch(keys, nil)
			} else {
				q.InsertBatch(keys, nil)
			}
		}(p)
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := q.NewHandle()
			var buf []core.Element[int]
			for i := 0; i < 300; i++ {
				switch c {
				case 0:
					q.TryExtractMax()
				case 1:
					buf = q.ExtractBatch(buf[:0], 5)
				case 2:
					h.TryExtractMax()
				default:
					buf = h.ExtractBatch(buf[:0], 5)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := q.SyncWAL(); err != nil {
		t.Fatal(err)
	}

	image, err := os.ReadFile(filepath.Join(dir, "queue.wal"))
	if err != nil {
		t.Fatal(err)
	}
	live := map[uint64]int{}
	d := wal.NewDecoder(image)
	records := 0
	for {
		rec, err := d.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("decoding record %d: %v", records, err)
		}
		records++
		delta := 1
		if rec.Kind == walExtract || rec.Kind == walExtractBatch {
			delta = -1
		}
		for _, k := range rec.Keys {
			if live[k] += delta; live[k] < 0 {
				t.Fatalf("record %d (LSN %d) logs the extraction of key %#x before its insertion", records, rec.LSN, k)
			}
		}
	}
	for _, e := range q.Drain() {
		if live[e.Key]--; live[e.Key] < 0 {
			t.Fatalf("the queue held key %#x, which the log had not left live", e.Key)
		}
	}
	for k, n := range live {
		if n != 0 {
			t.Fatalf("the log leaves key %#x live %d times, but the queue did not hold it", k, n)
		}
	}
	if err := q.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableLogAllocs pins valued logging to amortized zero allocations
// per element: the encoding arena and the key scratch live in the
// front-end's operation contexts and reach steady state after a few calls.
func TestDurableLogAllocs(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("instrumentation allocates")
	}
	const n = 64
	q, _ := mustOpen(t, durableConfig(2, t.TempDir()), Options[[]byte]{Codec: wal.BytesCodec{}})
	defer q.CloseWAL()
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = valueFor(keys[i])
	}
	dst := make([]core.Element[[]byte], 0, n)
	step := func() {
		q.InsertBatch(keys, vals)
		dst = q.ExtractBatch(dst[:0], n)
		q.Insert(keys[0], vals[0])
		q.TryExtractMax()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	prevGC := debug.SetGCPercent(-1)
	prevProcs := runtime.GOMAXPROCS(1)
	defer func() {
		debug.SetGCPercent(prevGC)
		runtime.GOMAXPROCS(prevProcs)
	}()
	// AllocsPerRun floors the mean, so 0 means fewer than one allocation
	// per step: amortized under one per 2n+2 logged elements.
	if got := testing.AllocsPerRun(500, step); got != 0 {
		t.Errorf("durable valued logging allocates %v times per step of %d logged elements, want 0", got, 2*n+2)
	}
}

// TestConfigValidateDurability covers the durability options with the
// sentinel errors callers are expected to branch on (errors.Is).
func TestConfigValidateDurability(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *core.DurabilityConfig
		want error // sentinel matched with errors.Is; nil means valid
	}{
		{name: "nil durability"},
		{name: "durability struct present but WAL off", d: &core.DurabilityConfig{Dir: "/tmp/q"}},
		{name: "valid durable config", d: &core.DurabilityConfig{
			WAL: true, Dir: "/tmp/q", GroupCommit: time.Millisecond, SnapshotBytes: 1 << 20,
		}},
		{name: "missing dir", d: &core.DurabilityConfig{WAL: true, GroupCommit: time.Millisecond}, want: ErrDurabilityDir},
		{name: "zero group commit", d: &core.DurabilityConfig{WAL: true, Dir: "/tmp/q"}, want: ErrDurabilityGroupCommit},
		{name: "negative group commit", d: &core.DurabilityConfig{
			WAL: true, Dir: "/tmp/q", GroupCommit: -time.Millisecond,
		}, want: ErrDurabilityGroupCommit},
		{name: "snapshot without WAL", d: &core.DurabilityConfig{Dir: "/tmp/q", SnapshotBytes: 1 << 20}, want: ErrSnapshotWithoutWAL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Queue: core.Config{Durability: tc.d}}
			err := cfg.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}
