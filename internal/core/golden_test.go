package core

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/xrand"
)

// TestGoldenSequenceCore pins element placement inside the TNode sets bit
// for bit: at a fixed seed, a scripted single-goroutine fill / hover / run
// dry over one list-set queue of []byte values must extract exactly the
// (key, value) sequence — and take exactly the insert paths, swap-downs
// and pool refills — recorded in the constants below. About one key in a
// hundred repeats a recent one and every value is its insert's serial
// number, so the order of equal keys inside a set is part of the hash.
//
// The constants were generated at commit bab68bc (the parent of the PR that
// gave lnode its prev link) and pass there: a change to the list
// representation that moves any element, tie included, shows up here.
//
// Like sharded's TestGoldenSequence it needs the one pooled context to
// survive the run: one P, collector off, skipped under the race detector.
func TestGoldenSequenceCore(t *testing.T) {
	const (
		wantExtracted     = 184939
		wantHash          = 0x56ca0f182d6697ff
		wantInsertRegular = 168921
		wantInsertForced  = 16018
		wantSwapDownMoves = 42639
		wantPoolRefills   = 4685
	)
	if raceEnabled {
		t.Skip("sync.Pool drops contexts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cfg := DefaultConfig()
	cfg.SetMode = SetModeList
	cfg.Seed = 0xc0de
	cfg.Metrics = NewMetrics()
	q := New[[]byte](cfg)

	sum := fnv.New64a()
	extracted := 0
	record := func(k uint64, v []byte) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], k)
		sum.Write(b[:])
		sum.Write(v)
		extracted++
	}
	script := xrand.New(0x901d)
	var (
		serial uint64
		recent [64]uint64
		keys   []uint64
		vals   [][]byte
		elems  []Element[[]byte]
	)
	// step performs one scripted operation: an insert with probability
	// insertPct/100, else an extraction; single or batched with equal odds.
	step := func(insertPct int) {
		insert := script.Intn(100) < insertPct
		n := 1
		if script.Intn(2) == 0 {
			n = 2 + script.Intn(8)
		}
		if !insert {
			if n == 1 {
				if k, v, ok := q.TryExtractMax(); ok {
					record(k, v)
				}
				return
			}
			elems = q.ExtractBatch(elems[:0], n)
			for _, e := range elems {
				record(e.Key, e.Val)
			}
			return
		}
		keys, vals = keys[:0], vals[:0]
		for i := 0; i < n; i++ {
			k := script.Uint64() >> 40
			if serial > 0 && script.Intn(100) == 0 {
				k = recent[script.Intn(len(recent))]
			}
			recent[serial%uint64(len(recent))] = k
			keys = append(keys, k)
			vals = append(vals, binary.LittleEndian.AppendUint64(nil, serial))
			serial++
		}
		if n == 1 {
			q.Insert(keys[0], vals[0])
		} else {
			q.InsertBatch(keys, vals)
		}
	}
	for i := 0; i < 40000; i++ { // fill: growth and splits
		step(80)
	}
	for i := 0; i < 40000; i++ { // hover: parent-min swaps into full sets
		step(50)
	}
	for i := 0; i < 20000; i++ { // run dry: refills and swap-downs
		step(25)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, e := range q.Drain() {
		record(e.Key, e.Val)
	}
	if uint64(extracted) != serial {
		t.Fatalf("extracted %d of %d inserted", extracted, serial)
	}

	s := q.Snapshot()
	if extracted != wantExtracted || sum.Sum64() != wantHash ||
		s.InsertRegular != wantInsertRegular || s.InsertForced != wantInsertForced ||
		s.SwapDownMoves != wantSwapDownMoves || s.PoolRefills != wantPoolRefills {
		t.Fatalf("sequence diverged from the recorded one:\n got  extracted %d hash %#x regular %d forced %d swap-down moves %d pool refills %d\n want extracted %d hash %#x regular %d forced %d swap-down moves %d pool refills %d",
			extracted, sum.Sum64(), s.InsertRegular, s.InsertForced, s.SwapDownMoves, s.PoolRefills,
			wantExtracted, uint64(wantHash), wantInsertRegular, wantInsertForced, wantSwapDownMoves, wantPoolRefills)
	}
}
