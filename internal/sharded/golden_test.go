package sharded

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// TestGoldenSequence pins the front-end's selection machinery bit for bit:
// at a fixed seed, a scripted single-goroutine mix driven half through a
// Handle and half through the pooled entry points must extract exactly the
// key sequence — and perform exactly the sweeps and steals — recorded in
// the constants below. They were generated at the commit before the
// sharding-v2 policy layer was deleted, so any change to the RNG draws per
// operation, the shard picks or the sweep schedule shows up here.
//
// The sequence depends on every pooled context surviving the run, so the
// test holds the scheduler to one P (sync.Pool is per-P) and the collector
// off (an idle shard's context is dropped by two collections); under the
// race detector sync.Pool drops a quarter of all Puts at random and the
// test has nothing to compare.
func TestGoldenSequence(t *testing.T) {
	const (
		wantExtracted   = 8299
		wantHash        = 0x3aad515c3404cb50
		wantFullSweeps  = 2075
		wantStealSweeps = 1074
		wantSteals      = 1073
	)
	if raceEnabled {
		t.Skip("sync.Pool drops contexts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cfg := testCfg(4, 8)
	cfg.Queue.Seed = 0x5eed
	q := New[struct{}](cfg)
	h := q.NewHandle()

	sum := fnv.New64a()
	extracted := 0
	record := func(k uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], k)
		sum.Write(b[:])
		extracted++
	}
	script := xrand.New(0x901d)
	keys := make([]uint64, 0, 8)
	var elems []core.Element[struct{}]
	// step performs one scripted operation: an insert with probability
	// insertPct/100, else an extraction; each on the Handle or through the
	// pool with equal odds, single or batched with equal odds.
	step := func(insertPct int) {
		insert := script.Intn(100) < insertPct
		onHandle := script.Intn(2) == 0
		n := 1
		if script.Intn(2) == 0 {
			n = 2 + script.Intn(6)
		}
		if insert {
			keys = keys[:0]
			for i := 0; i < n; i++ {
				keys = append(keys, script.Uint64()>>44)
			}
			switch {
			case onHandle:
				h.InsertBatch(keys, nil)
			case n == 1:
				q.Insert(keys[0], struct{}{})
			default:
				q.InsertBatch(keys, nil)
			}
			return
		}
		switch {
		case n == 1 && onHandle:
			if k, _, ok := h.TryExtractMax(); ok {
				record(k)
			}
		case n == 1:
			if k, _, ok := q.TryExtractMax(); ok {
				record(k)
			}
		default:
			if onHandle {
				elems = h.ExtractBatch(elems[:0], n)
			} else {
				elems = q.ExtractBatch(elems[:0], n)
			}
			for _, e := range elems {
				record(e.Key)
			}
		}
	}
	for i := 0; i < 2000; i++ { // fill
		step(75)
	}
	for i := 0; i < 2000; i++ { // hover
		step(50)
	}
	for i := 0; i < 1500; i++ { // run dry: empty shards force steal sweeps
		step(30)
	}
	for _, e := range q.Drain() {
		record(e.Key)
	}
	if !q.Empty() {
		t.Fatal("queue not empty after Drain")
	}

	s := q.Snapshot()
	if extracted != wantExtracted || sum.Sum64() != wantHash ||
		s.FullSweeps != wantFullSweeps || s.StealSweeps != wantStealSweeps || s.Steals != wantSteals {
		t.Fatalf("sequence diverged from the recorded one:\n got  extracted %d hash %#x full sweeps %d steal sweeps %d steals %d\n want extracted %d hash %#x full sweeps %d steal sweeps %d steals %d",
			extracted, sum.Sum64(), s.FullSweeps, s.StealSweeps, s.Steals,
			wantExtracted, uint64(wantHash), wantFullSweeps, wantStealSweeps, wantSteals)
	}
}
