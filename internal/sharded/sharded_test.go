package sharded

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/fault"
)

func testCfg(shards, batch int) Config {
	return Config{
		Shards: shards,
		Queue:  core.Config{Batch: batch, TargetLen: 8},
	}
}

func TestBasicInsertExtract(t *testing.T) {
	q := New[int](testCfg(4, 4))
	if len(q.shards) != 4 {
		t.Fatalf("NumShards = %d", len(q.shards))
	}
	const n = 1000
	for i := 0; i < n; i++ {
		q.Insert(uint64(i), i)
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		k, v, ok := q.TryExtractMax()
		if !ok {
			t.Fatalf("extraction %d failed on nonempty queue", i)
		}
		if seen[k] {
			t.Fatalf("key %d extracted twice", k)
		}
		if uint64(v) != k {
			t.Fatalf("payload mismatch: key %d val %d", k, v)
		}
		seen[k] = true
	}
	if _, _, ok := q.TryExtractMax(); ok {
		t.Fatal("extraction succeeded on empty queue")
	}
	if q.Len() != 0 {
		t.Fatal("queue nonempty after full drain")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultShards(t *testing.T) {
	if s := DefaultShards(); s < 1 || s > defaultMaxShards {
		t.Fatalf("DefaultShards = %d", s)
	}
	q := New[struct{}](Config{Queue: core.Config{Batch: 4, TargetLen: 8}})
	if len(q.shards) != DefaultShards() {
		t.Fatalf("zero Shards built %d shards, want %d", len(q.shards), DefaultShards())
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{Shards: -1, Queue: core.Config{}}).Validate(); err == nil {
		t.Fatal("negative Shards accepted")
	}
	if err := (Config{Queue: core.Config{Batch: -1}}).Validate(); err == nil {
		t.Fatal("invalid per-shard config accepted")
	}
}

func TestDrainEmptiesShards(t *testing.T) {
	q := New[int](testCfg(3, 4))
	for i := 0; i < 300; i++ {
		q.Insert(uint64(i), i)
	}
	out := q.Drain()
	if len(out) != 300 {
		t.Fatalf("Drain returned %d elements", len(out))
	}
	if q.Len() != 0 {
		t.Fatal("nonempty after Drain")
	}
}

func TestBatchOps(t *testing.T) {
	q := New[struct{}](testCfg(4, 8))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = uint64(i)
	}
	q.InsertBatch(keys, nil)
	if q.Len() != 500 {
		t.Fatalf("Len = %d after InsertBatch", q.Len())
	}
	out := q.ExtractBatch(nil, 500)
	if len(out) != 500 {
		t.Fatalf("ExtractBatch returned %d", len(out))
	}
	got := make([]uint64, len(out))
	for i, e := range out {
		got[i] = e.Key
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, k := range got {
		if k != uint64(i) {
			t.Fatalf("conservation broken at %d: key %d", i, k)
		}
	}
	if more := q.ExtractBatch(nil, 5); len(more) != 0 {
		t.Fatalf("ExtractBatch on empty queue returned %d", len(more))
	}
}

// TestSnapshotMerge checks that the merged metrics view accounts for every
// operation regardless of which shard served it, and that the sharded
// telemetry fields are populated.
func TestSnapshotMerge(t *testing.T) {
	cfg := testCfg(4, 4)
	cfg.Queue.Metrics = core.NewMetrics()
	q := New[int](cfg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				q.Insert(uint64(w*1000+i), i)
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 4000; i++ {
		if _, _, ok := q.TryExtractMax(); !ok {
			t.Fatalf("extraction %d failed", i)
		}
	}
	s := q.Snapshot()
	if s.Shards != 4 || len(s.PerShard) != 4 {
		t.Fatalf("snapshot shape: %d shards, %d per-shard", s.Shards, len(s.PerShard))
	}
	if !s.Merged.Enabled {
		t.Fatal("merged snapshot not Enabled")
	}
	if got := s.Merged.InsertsTotal(); got != 4000 {
		t.Fatalf("merged inserts = %d, want 4000", got)
	}
	if got := s.Merged.ExtractsTotal(); got != 4000 {
		t.Fatalf("merged extracts = %d, want 4000", got)
	}
	var perShardInserts uint64
	for _, ps := range s.PerShard {
		perShardInserts += ps.InsertsTotal()
	}
	if perShardInserts != 4000 {
		t.Fatalf("per-shard inserts sum = %d", perShardInserts)
	}
	if s.FullSweeps == 0 {
		t.Fatal("no full sweeps recorded over 4000 extractions")
	}
	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "zmsq_sharded_shards 4") {
		t.Fatalf("prometheus output missing shard gauge:\n%s", sb.String())
	}
}

// TestComposedWindowContract runs the contract checker against a sharded
// queue: a concurrent mixed phase, then a strict single-consumer phase
// verified against the composed S·(Batch+1) window bound.
func TestComposedWindowContract(t *testing.T) {
	const (
		shards  = 4
		batch   = 8
		workers = 4
		perW    = 3000
	)
	q := New[struct{}](testCfg(shards, batch))
	ck := contract.NewChecker(contract.Config{Batch: batch, Shards: shards})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := ck.Recorder()
			for i := 0; i < perW; i++ {
				k := uint64(w*perW + i)
				r.WillInsert(k)
				q.Insert(k, struct{}{})
				r.DidInsert()
				if i%3 == 0 {
					r.WillExtract()
					kk, _, ok := q.TryExtractMax()
					r.DidExtract(kk, ok)
				}
			}
		}(w)
	}
	wg.Wait()

	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Warm-up flush: discard up to S·(batch+1) extractions so entries
	// pooled during the concurrent phase (stale ranks) don't charge the
	// strict window, then verify the composed bound single-threaded.
	r := ck.Recorder()
	for i := 0; i < shards*(batch+1); i++ {
		r.WillExtract()
		k, _, ok := q.TryExtractMax()
		r.DidExtract(k, ok)
		if !ok {
			break
		}
	}
	ck.BeginStrict()
	for {
		r.WillExtract()
		k, _, ok := q.TryExtractMax()
		r.DidExtract(k, ok)
		if !ok {
			break
		}
	}
	ck.EndStrict()

	rep, err := ck.Verify()
	if err != nil {
		t.Fatalf("contract violated: %v\nworst run %d, strict extracts %d", err, rep.WorstRun, rep.StrictExtracts)
	}
	if rep.Remaining != 0 {
		t.Fatalf("%d elements lost", rep.Remaining)
	}
	if rep.StrictExtracts == 0 {
		t.Fatal("strict phase observed no extractions")
	}
	t.Logf("strict extracts %d, worst run %d (bound %d), top frac %.3f",
		rep.StrictExtracts, rep.WorstRun, shards*(batch+1)-1, rep.TopFrac)
}

// TestChaosFaults runs a concurrent mixed workload with every fault point
// firing and checks conservation and invariants survive.
func TestChaosFaults(t *testing.T) {
	inj := fault.New(42, fault.DefaultPlan())
	cfg := testCfg(3, 4)
	cfg.Queue.Faults = inj
	q := New[struct{}](cfg)
	ck := contract.NewChecker(contract.Config{Batch: 4, Shards: 3})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := ck.Recorder()
			for i := 0; i < 2000; i++ {
				k := uint64(w*2000 + i)
				r.WillInsert(k)
				q.Insert(k, struct{}{})
				r.DidInsert()
				if i%2 == 0 {
					r.WillExtract()
					kk, _, ok := q.TryExtractMax()
					r.DidExtract(kk, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	r := ck.Recorder()
	for {
		r.WillExtract()
		k, _, ok := q.TryExtractMax()
		r.DidExtract(k, ok)
		if !ok {
			break
		}
	}
	rep, err := ck.Verify()
	if err != nil {
		t.Fatalf("contract violated under faults: %v", err)
	}
	if rep.Remaining != 0 {
		t.Fatalf("%d elements lost under faults", rep.Remaining)
	}
}

// TestSharedDomainAcrossShards confirms the shards recycle through one
// AllocDomain rather than S private ones.
func TestSharedDomainAcrossShards(t *testing.T) {
	q := New[int](testCfg(4, 0))
	for round := 0; round < 5; round++ {
		for i := 0; i < 400; i++ {
			q.Insert(uint64(i), i)
		}
		for {
			if _, _, ok := q.TryExtractMax(); !ok {
				break
			}
		}
	}
	for i := range q.shards {
		if q.shards[i].q.PoolOccupancy() != 0 {
			t.Fatalf("strict shard %d reports pool occupancy", i)
		}
	}
	if q.ad == nil {
		t.Fatal("no shared domain")
	}
}
