package core

import (
	"sort"
	"testing"
)

// FuzzStrictMatchesOracle drives a strict queue (batch=0) with a fuzzer-
// chosen operation sequence and compares every extraction against a sorted
// oracle. Run with `go test -fuzz FuzzStrictMatchesOracle ./internal/core`
// to search beyond the seed corpus; in ordinary test runs the corpus
// below executes as regular cases.
func FuzzStrictMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 255, 128, 7, 7, 7}, uint8(0))
	f.Add([]byte{255, 254, 253, 252, 251, 250}, uint8(1)) // descending
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(2))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, ops []byte, variant uint8) {
		cfg := testConfig{Config: Config{Batch: 0, TargetLen: 2 + int(variant%8)}}
		cfg.SetMode = SetMode(variant & 1)
		cfg.hazard = variant&2 == 0
		q := newTestQueue[int](cfg)
		var oracle []uint64
		for i, op := range ops {
			if op < 170 || len(oracle) == 0 {
				// Key derived from position and byte: includes duplicates
				// and adversarial orders.
				k := uint64(op)<<8 | uint64(i&0xff)
				q.Insert(k, i)
				oracle = append(oracle, k)
				sort.Slice(oracle, func(a, b int) bool { return oracle[a] > oracle[b] })
			} else {
				k, _, ok := q.TryExtractMax()
				if !ok {
					t.Fatalf("op %d: extract failed with %d elements", i, len(oracle))
				}
				if k != oracle[0] {
					t.Fatalf("op %d: strict extract = %d, oracle max = %d", i, k, oracle[0])
				}
				oracle = oracle[1:]
			}
		}
		if q.Len() != len(oracle) {
			t.Fatalf("Len = %d, oracle holds %d", q.Len(), len(oracle))
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRelaxedConservation checks multiset conservation and the §3.7
// window guarantee under fuzzer-chosen operations and configurations.
func FuzzRelaxedConservation(f *testing.F) {
	f.Add([]byte{10, 20, 30, 200, 201, 40, 202}, uint8(4), uint8(6))
	f.Add([]byte{255, 0, 255, 0, 255, 0, 255, 0}, uint8(1), uint8(1))
	f.Add([]byte{10, 20, 30, 200, 201, 40, 202, 9, 8, 203}, uint8(0x83), uint8(2)) // array sets
	f.Fuzz(func(t *testing.T, ops []byte, batchRaw, targetRaw uint8) {
		batch := int(batchRaw%16) + 1
		target := int(targetRaw%16) + 1
		cfg := Config{Batch: batch, TargetLen: target}
		if batchRaw&0x80 != 0 {
			cfg.SetMode = SetModeArray
		}
		q := New[int](cfg)
		in := map[uint64]int{}
		out := map[uint64]int{}
		size := 0
		for i, op := range ops {
			if op < 170 || size == 0 {
				k := uint64(op) ^ uint64(i)<<3
				q.Insert(k, i)
				in[k]++
				size++
			} else {
				k, _, ok := q.TryExtractMax()
				if !ok {
					t.Fatalf("op %d: extract failed with %d present", i, size)
				}
				out[k]++
				size--
			}
		}
		for {
			k, _, ok := q.TryExtractMax()
			if !ok {
				break
			}
			out[k]++
		}
		for k, c := range in {
			if out[k] != c {
				t.Fatalf("key %d: inserted %d, extracted %d", k, c, out[k])
			}
		}
		for k := range out {
			if in[k] == 0 {
				t.Fatalf("extracted key %d never inserted", k)
			}
		}
	})
}
