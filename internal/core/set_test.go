package core

import (
	"slices"
	"sort"
	"testing"
)

// newAlloc returns a list allocator over a private domain for direct set
// testing, with the classes of a targetLen-8 queue.
func newAlloc() *alloc[int] { return modelAlloc[int](false) }

func mkSet(array bool) (*nodeSet[int], *alloc[int]) {
	if array {
		return &nodeSet[int]{e: make([]element[int], 0, 64)}, modelAlloc[int](true)
	}
	return &nodeSet[int]{}, newAlloc()
}

func setVariants(t *testing.T, f func(t *testing.T, mk func() (*nodeSet[int], *alloc[int]))) {
	t.Run("list", func(t *testing.T) { f(t, func() (*nodeSet[int], *alloc[int]) { return mkSet(false) }) })
	t.Run("array", func(t *testing.T) { f(t, func() (*nodeSet[int], *alloc[int]) { return mkSet(true) }) })
}

// length counts the set's elements. The queue never asks: a TNode's count
// is its set's size.
func (s *nodeSet[V]) length() int { return len(s.e) }

// removeMin removes and returns the smallest element (the first one an
// array scan meets). The set must be nonempty. The queue removes a minimum
// only inside swapMin.
func (s *nodeSet[V]) removeMin(a *alloc[V]) element[V] {
	if a.arr {
		best := 0
		for i, e := range s.e {
			if e.key < s.e[best].key {
				best = i
			}
		}
		return s.arrayRemoveAt(best)
	}
	e := s.e[0]
	n := copy(s.e, s.e[1:])
	s.e[n] = element[V]{}
	s.e = s.e[:n]
	s.fit(a)
	return e
}

func fillSet(s *nodeSet[int], a *alloc[int], keys []uint64) {
	for _, k := range keys {
		if s.length() == 0 || k >= s.maxKey(a) {
			s.insertMax(a, element[int]{key: k})
		} else {
			s.insertNonMax(a, element[int]{key: k})
		}
	}
}

func TestSetInsertAndExtremes(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		keys := []uint64{5, 9, 2, 9, 7, 1, 8}
		fillSet(s, a, keys)
		if s.length() != len(keys) {
			t.Fatalf("length = %d, want %d", s.length(), len(keys))
		}
		if s.maxKey(a) != 9 {
			t.Fatalf("maxKey = %d, want 9", s.maxKey(a))
		}
		if s.minKey(a) != 1 {
			t.Fatalf("minKey = %d, want 1", s.minKey(a))
		}
	})
}

func TestSetRemoveMaxSortedDrain(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		keys := []uint64{5, 9, 2, 9, 7, 1, 8, 3, 3}
		fillSet(s, a, keys)
		sorted := append([]uint64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		for i, w := range sorted {
			got := s.removeMax(a)
			if got.key != w {
				t.Fatalf("removeMax %d = %d, want %d", i, got.key, w)
			}
		}
		if s.length() != 0 {
			t.Fatalf("length %d after drain", s.length())
		}
	})
}

func TestSetRemoveMin(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		fillSet(s, a, []uint64{5, 9, 2, 7})
		if got := s.removeMin(a); got.key != 2 {
			t.Fatalf("removeMin = %d, want 2", got.key)
		}
		if s.minKey(a) != 5 {
			t.Fatalf("minKey after removeMin = %d, want 5", s.minKey(a))
		}
		if s.length() != 3 {
			t.Fatalf("length = %d, want 3", s.length())
		}
	})
}

func TestSetRemoveMinSingleton(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		s.insertMax(a, element[int]{key: 42})
		if got := s.removeMin(a); got.key != 42 {
			t.Fatalf("removeMin singleton = %d", got.key)
		}
		if s.length() != 0 {
			t.Fatal("set not empty")
		}
	})
}

func TestSetTakeTopAscending(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		fillSet(s, a, []uint64{10, 30, 20, 50, 40})
		out := s.takeTop(a, 3, nil)
		want := []uint64{30, 40, 50}
		if len(out) != 3 {
			t.Fatalf("takeTop returned %d elements", len(out))
		}
		for i, w := range want {
			if out[i].key != w {
				t.Fatalf("takeTop[%d] = %d, want %d", i, out[i].key, w)
			}
		}
		if s.length() != 2 || s.maxKey(a) != 20 || s.minKey(a) != 10 {
			t.Fatalf("remaining set wrong: len=%d max=%d min=%d", s.length(), s.maxKey(a), s.minKey(a))
		}
	})
}

func TestSetTakeTopAll(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		fillSet(s, a, []uint64{3, 1, 2})
		out := s.takeTop(a, 3, nil)
		if len(out) != 3 || s.length() != 0 {
			t.Fatalf("takeTop all: out=%d remaining=%d", len(out), s.length())
		}
	})
}

func TestSetSplitLower(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		fillSet(s, a, []uint64{10, 30, 20, 50, 40, 60, 70})
		lower := s.splitLower(a, s.length(), nil)
		if len(lower) != 3 {
			t.Fatalf("splitLower returned %d, want 3", len(lower))
		}
		for _, e := range lower {
			if e.key > 30 {
				t.Fatalf("splitLower returned high key %d", e.key)
			}
		}
		if s.length() != 4 || s.minKey(a) != 40 || s.maxKey(a) != 70 {
			t.Fatalf("kept half wrong: len=%d min=%d max=%d", s.length(), s.minKey(a), s.maxKey(a))
		}
	})
}

func TestSetSplitLowerSmall(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		s.insertMax(a, element[int]{key: 1})
		if got := s.splitLower(a, s.length(), nil); len(got) != 0 {
			t.Fatalf("splitLower of singleton = %v, want empty", got)
		}
	})
}

func TestSetAscending(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		fillSet(s, a, []uint64{4, 2, 9, 6})
		out := s.ascending(a, nil)
		want := []uint64{2, 4, 6, 9}
		for i, w := range want {
			if out[i].key != w {
				t.Fatalf("ascending[%d] = %d, want %d", i, out[i].key, w)
			}
		}
		if s.length() != 4 {
			t.Fatal("ascending must not remove elements")
		}
	})
}

func TestSetPayloadsPreserved(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		s.insertMax(a, element[int]{key: 10, val: 100})
		s.insertMax(a, element[int]{key: 20, val: 200})
		s.insertNonMax(a, element[int]{key: 15, val: 150})
		for _, want := range []struct {
			k uint64
			v int
		}{{20, 200}, {15, 150}, {10, 100}} {
			got := s.removeMax(a)
			if got.key != want.k || got.val != want.v {
				t.Fatalf("got (%d,%d), want (%d,%d)", got.key, got.val, want.k, want.v)
			}
		}
	})
}

func TestSetSwapMin(t *testing.T) {
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		fillSet(s, a, []uint64{10, 30, 20, 50})
		demoted, ok := s.swapMin(a, element[int]{key: 25, val: 7})
		if !ok || demoted.key != 10 {
			t.Fatalf("swapMin = %d, %v; want 10, true", demoted.key, ok)
		}
		if s.length() != 4 || s.minKey(a) != 20 || s.maxKey(a) != 50 {
			t.Fatalf("set wrong after swapMin: len=%d min=%d max=%d", s.length(), s.minKey(a), s.maxKey(a))
		}
		out := s.ascending(a, nil)
		want := []uint64{20, 25, 30, 50}
		for i, w := range want {
			if out[i].key != w {
				t.Fatalf("ascending[%d]=%d want %d", i, out[i].key, w)
			}
		}

		// Refused: a key equal to or below the minimum swaps nothing and
		// leaves every element where it was.
		contents := func() []element[int] {
			if a.arr {
				return slices.Clone(s.e)
			}
			return s.ascending(a, nil)
		}
		for _, k := range []uint64{20, 3} {
			before := contents()
			if demoted, ok := s.swapMin(a, element[int]{key: k, val: 9}); ok || demoted != (element[int]{}) {
				t.Fatalf("swapMin(%d) at minimum 20 = %v, %v; want the zero element, false", k, demoted, ok)
			}
			if after := contents(); !slices.Equal(after, before) {
				t.Fatalf("refused swapMin(%d) changed the set: %v, was %v", k, after, before)
			}
		}
	})
}

func TestSetSwapMinBecomesNewMin(t *testing.T) {
	// e lands just above the removed minimum and becomes the new minimum.
	setVariants(t, func(t *testing.T, mk func() (*nodeSet[int], *alloc[int])) {
		s, a := mk()
		fillSet(s, a, []uint64{10, 50})
		demoted, ok := s.swapMin(a, element[int]{key: 11})
		if !ok || demoted.key != 10 || s.minKey(a) != 11 {
			t.Fatalf("got demoted=%d ok=%v min=%d, want 10, true, 11", demoted.key, ok, s.minKey(a))
		}
	})
}
