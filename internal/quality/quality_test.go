package quality

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// model is a sorted-descending slice multiset used as the treap oracle.
type model []uint64

func (m *model) insert(k uint64) {
	i := sort.Search(len(*m), func(i int) bool { return (*m)[i] <= k })
	*m = append(*m, 0)
	copy((*m)[i+1:], (*m)[i:])
	(*m)[i] = k
}

func (m *model) delete(k uint64) bool {
	for i, v := range *m {
		if v == k {
			*m = append((*m)[:i], (*m)[i+1:]...)
			return true
		}
	}
	return false
}

func (m model) rankFromTop(k uint64) (int, bool) {
	greater := 0
	found := false
	for _, v := range m {
		if v > k {
			greater++
		} else if v == k {
			found = true
		}
	}
	return greater, found
}

func TestTreapBasics(t *testing.T) {
	tr := NewTreap(1)
	if tr.Len() != 0 {
		t.Fatal("fresh treap nonempty")
	}
	if _, ok := tr.Max(); ok {
		t.Fatal("Max on empty succeeded")
	}
	if _, ok := tr.RankFromTop(5); ok {
		t.Fatal("rank of absent key succeeded")
	}
	tr.Insert(10)
	tr.Insert(30)
	tr.Insert(20)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if m, _ := tr.Max(); m != 30 {
		t.Fatalf("Max = %d", m)
	}
	for k, want := range map[uint64]int{30: 0, 20: 1, 10: 2} {
		got, ok := tr.RankFromTop(k)
		if !ok || got != want {
			t.Fatalf("rank(%d) = %d,%v want %d", k, got, ok, want)
		}
	}
}

func TestTreapDuplicates(t *testing.T) {
	tr := NewTreap(2)
	tr.Insert(5)
	tr.Insert(5)
	tr.Insert(5)
	tr.Insert(9)
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// All three 5s rank below the single 9.
	if r, _ := tr.RankFromTop(5); r != 1 {
		t.Fatalf("rank(5) = %d, want 1", r)
	}
	if !tr.Delete(5) || tr.Len() != 3 {
		t.Fatal("delete of duplicate failed")
	}
	if !tr.Contains(5) {
		t.Fatal("5 should remain after deleting one copy")
	}
	tr.Delete(5)
	tr.Delete(5)
	if tr.Contains(5) {
		t.Fatal("5 should be gone")
	}
	if tr.Delete(5) {
		t.Fatal("deleting absent key succeeded")
	}
}

func TestTreapModelEquivalence(t *testing.T) {
	r := xrand.New(42)
	f := func(ops []byte) bool {
		tr := NewTreap(7)
		var m model
		for _, op := range ops {
			k := uint64(r.Intn(64))
			switch {
			case op < 140 || len(m) == 0:
				tr.Insert(k)
				m.insert(k)
			case op < 200:
				got := tr.Delete(k)
				want := m.delete(k)
				if got != want {
					return false
				}
			default:
				gotRank, gotOK := tr.RankFromTop(k)
				wantRank, wantOK := m.rankFromTop(k)
				if gotOK != wantOK || (gotOK && gotRank != wantRank) {
					return false
				}
			}
			if tr.Len() != len(m) {
				return false
			}
			if len(m) > 0 {
				if mx, ok := tr.Max(); !ok || mx != m[0] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTreapBalanced(t *testing.T) {
	// Sequential inserts must not degenerate: depth should stay O(log n).
	tr := NewTreap(3)
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i))
	}
	depth := 0
	var walk func(*treapNode, int)
	walk = func(nd *treapNode, d int) {
		if nd == nil {
			return
		}
		if d > depth {
			depth = d
		}
		walk(nd.left, d+1)
		walk(nd.right, d+1)
	}
	walk(tr.root, 1)
	if depth > 70 { // ~4.3x log2(1e5); randomized treaps stay near 1.39·log2
		t.Fatalf("treap depth %d for %d sequential inserts", depth, n)
	}
}

func TestTrackerRanks(t *testing.T) {
	tr := NewTracker(1)
	for _, k := range []uint64{10, 20, 30, 40} {
		tr.Insert(k)
	}
	if got := tr.ObserveExtract(40); got != 0 {
		t.Fatalf("rank of max = %d", got)
	}
	if got := tr.ObserveExtract(20); got != 1 {
		t.Fatalf("rank of 20 after 40 gone = %d (30 outranks it)", got)
	}
	if got := tr.ObserveExtract(30); got != 0 {
		t.Fatalf("rank of 30 = %d", got)
	}
	if n := tr.t.Len(); n != 1 {
		t.Fatalf("remaining = %d", n)
	}
	s := tr.Summary()
	if s.Extractions != 3 {
		t.Fatalf("extractions = %d", s.Extractions)
	}
	if s.MaxRate < 0.66 || s.MaxRate > 0.67 {
		t.Fatalf("maxRate = %v, want 2/3", s.MaxRate)
	}
	if s.Worst != 1 {
		t.Fatalf("worst = %v", s.Worst)
	}
	if s.Misses != 0 {
		t.Fatal("unexpected misses")
	}
}

func TestTrackerUnknownKey(t *testing.T) {
	tr := NewTracker(1)
	tr.Insert(1)
	if got := tr.ObserveExtract(99); got != -1 {
		t.Fatalf("unknown key rank = %d, want -1", got)
	}
	if s := tr.Summary(); s.Misses != 1 {
		t.Fatalf("misses = %d", s.Misses)
	}
}

func TestTrackerEmptySummary(t *testing.T) {
	s := NewTracker(1).Summary()
	if s.Extractions != 0 || s.MaxRate != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func BenchmarkTreapInsertDelete(b *testing.B) {
	tr := NewTreap(1)
	r := xrand.New(9)
	for i := 0; i < 1<<16; i++ {
		tr.Insert(r.Uint64() % (1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := r.Uint64() % (1 << 20)
		tr.Insert(k)
		tr.Delete(k)
	}
}

func BenchmarkTrackerObserve(b *testing.B) {
	tr := NewTracker(1)
	r := xrand.New(3)
	for i := 0; i < 1<<16; i++ {
		tr.Insert(r.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := r.Uint64()
		tr.Insert(k)
		tr.ObserveExtract(k)
	}
}
