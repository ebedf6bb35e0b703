package core

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// modelTargetLen fixes the run classes of the model's list sets small
// (3, 5, 9, 17 and 26 elements), so that random sequences cross every class
// boundary, fill buffers to the last slot and outgrow the largest class.
const modelTargetLen = 8

// setStats counts the situations runSetModel met, so that a test can
// insist that a sequence reached them.
type setStats struct {
	tiedMerges   int // addRun with equal keys inside the run and against the set
	swapAtMin    int // swapMin whose element became the new minimum
	swapBelowMax int // swapMin whose element landed just below the maximum
	full         int // a run that filled its buffer to the last slot
	oversize     int // a run past the largest class
	shrunk       int // a removal that moved the run to a smaller class
	released     int // a removal that emptied the run and gave its buffer back
}

// modelAlloc is the allocator runSetModel drives a set with: a list
// context of its own over a private domain, or an array one.
func modelAlloc[V any](arr bool) *alloc[V] {
	ad := NewAllocDomain[V](nil)
	ad.init(modelTargetLen)
	a := newCtxAlloc(ad, !arr, nil, 0)
	return &a
}

// ment is one element of the set model: its key and the serial number its
// value carries, which tells equal keys apart.
type ment struct{ key, id uint64 }

// setModel is a slice kept in descending key order. For a list set (exact)
// it is the list itself, node for node, with equal keys placed by the rule
// the singly linked list of the parent commit applied — walk forward from
// the head past every strictly greater key — so the model pins where ties
// land. An array set promises no order among equal keys, so there the model
// is a multiset: an element that comes out must carry the expected key and
// any serial number the model holds under that key.
type setModel struct {
	exact bool
	m     []ment
}

// add is the caller's rule (addLocked): a key that is a maximum goes in
// front, any other goes behind.
func (md *setModel) add(k, id uint64) {
	if len(md.m) == 0 || k >= md.m[0].key {
		md.m = slices.Insert(md.m, 0, ment{k, id})
		return
	}
	md.insertBehind(k, id)
}

// insertBehind is the non-max position rule: behind the head and every
// strictly greater key, in front of every other equal one.
func (md *setModel) insertBehind(k, id uint64) {
	i := 1
	for i < len(md.m) && md.m[i].key > k {
		i++
	}
	md.m = slices.Insert(md.m, i, ment{k, id})
}

// remove takes the element the set handed out off the model; at is where
// the model expects it.
func (md *setModel) remove(t *testing.T, got ment, at int) {
	t.Helper()
	if md.exact {
		if md.m[at] != got {
			t.Fatalf("got (%d,#%d), model has (%d,#%d) at %d", got.key, got.id, md.m[at].key, md.m[at].id, at)
		}
	} else {
		if md.m[at].key != got.key {
			t.Fatalf("got key %d, model has %d at %d", got.key, md.m[at].key, at)
		}
		if at = slices.Index(md.m, got); at < 0 {
			t.Fatalf("got (%d,#%d), which the model does not hold", got.key, got.id)
		}
	}
	md.m = slices.Delete(md.m, at, at+1)
}

// modelKeys is a small key universe — so that sequences are full of
// duplicates — spread over the whole range, so that the distances the
// nearest-end search compares reach both ends of uint64.
var modelKeys = []uint64{
	0, 0, 1, 2, 3, 1 << 20, 1<<20 + 1, 1 << 40, 1<<63 - 1, 1 << 63, 1<<63 + 1,
	math.MaxUint64 - 2, math.MaxUint64 - 1, math.MaxUint64, math.MaxUint64,
}

// fewKeys has four values, so that runs of equal keys fill whole buffers
// and every merge meets equal keys on both sides.
var fewKeys = []uint64{0, 1 << 40, 1 << 63, math.MaxUint64}

// runSetModel drives one set through random sequences of every mutating
// operation, drawing keys from modelKeys, and compares it with the model
// after each.
func runSetModel[V any](t *testing.T, arr bool, val func(uint64) V, id func(V) uint64, modelKeys []uint64) (st setStats) {
	r := xrand.New(0x5e7)
	a := modelAlloc[V](arr)
	var serial uint64
	elem := func(k uint64) element[V] {
		serial++
		return element[V]{key: k, val: val(serial)}
	}
	ent := func(e element[V]) ment { return ment{e.key, id(e.val)} }

	for trial := 0; trial < 400; trial++ {
		s := &nodeSet[V]{}
		if arr {
			s.e = make([]element[V], 0, 16)
		}
		md := &setModel{exact: !arr}
		// Low bias keeps the set at sizes 0-2, high bias grows it past a
		// split's worth and past the largest class.
		insertBias := 20 + r.Intn(70)
		for step := 0; step < 200; step++ {
			n := len(md.m)
			capBefore := cap(s.e)
			op := r.Intn(100)
			switch {
			case n == 0 || op < insertBias/2: // one element, by the caller's rule
				k := modelKeys[r.Intn(len(modelKeys))]
				e := elem(k)
				if n == 0 || k >= md.m[0].key {
					s.insertMax(a, e)
				} else {
					s.insertNonMax(a, e)
				}
				md.add(k, id(e.val))
			case op < insertBias: // a descending run, as a split hands down
				run := make([]element[V], 1+r.Intn(6))
				for i := range run {
					run[i] = elem(modelKeys[r.Intn(len(modelKeys))])
				}
				slices.SortStableFunc(run, func(x, y element[V]) int {
					switch {
					case x.key > y.key:
						return -1
					case x.key < y.key:
						return 1
					}
					return 0
				})
				if tiedRun(run) && slices.ContainsFunc(md.m, func(m ment) bool {
					return slices.ContainsFunc(run, func(e element[V]) bool { return e.key == m.key })
				}) {
					st.tiedMerges++
				}
				s.addRun(a, run)
				for _, e := range run {
					md.add(e.key, id(e.val))
				}
			case op < insertBias+15:
				md.remove(t, ent(s.removeMax(a)), 0)
			case op < insertBias+30:
				md.remove(t, ent(s.removeMin(a)), n-1)
			case op < insertBias+40:
				take := r.Intn(n + 1)
				out := s.takeTop(a, take, nil)
				if len(out) != take {
					t.Fatalf("takeTop(%d) returned %d", take, len(out))
				}
				// Ascending: the last one out is the model's head.
				for i := take - 1; i >= 0; i-- {
					md.remove(t, ent(out[i]), 0)
				}
			case op < insertBias+50:
				out := s.splitLower(a, n, nil)
				if len(out) != n/2 {
					t.Fatalf("splitLower of %d returned %d", n, len(out))
				}
				if !arr {
					// List order, so that addRun can take it as it comes.
					for _, e := range out {
						md.remove(t, ent(e), n-n/2)
					}
				} else {
					for i := len(out) - 1; i >= 0; i-- {
						md.remove(t, ent(out[i]), len(md.m)-1-i)
					}
				}
			default:
				if n < 2 || md.m[n-1].key == md.m[0].key {
					continue
				}
				// Any key with min < k <= max, ties with residents likely.
				k := modelKeys[r.Intn(len(modelKeys))]
				if k <= md.m[n-1].key || k > md.m[0].key {
					k = md.m[r.Intn(n)].key
					if k == md.m[n-1].key {
						k = md.m[0].key
					}
				}
				e := elem(k)
				demoted, ok := s.swapMin(a, e)
				if !ok {
					t.Fatalf("swapMin(%d) refused above the minimum %d", k, md.m[n-1].key)
				}
				md.insertBehind(k, id(e.val))
				md.remove(t, ent(demoted), n)
				if !arr {
					switch ent(e) {
					case ent(s.e[0]):
						st.swapAtMin++
					case ent(s.e[n-2]):
						st.swapBelowMax++
					}
				}
			}
			checkSetAgainstModel(t, s, a, md, ent)
			if !arr {
				switch c := cap(s.e); {
				case len(s.e) == 0 && capBefore > 0:
					st.released++
				case c < capBefore:
					st.shrunk++
				}
				if len(s.e) > 0 && len(s.e) == cap(s.e) {
					st.full++
				}
				if cap(s.e) > a.ad.caps[nClasses-1] {
					st.oversize++
				}
			}
		}
	}
	return st
}

// tiedRun reports whether run repeats a key.
func tiedRun[V any](run []element[V]) bool {
	for i := 1; i < len(run); i++ {
		if run[i].key == run[i-1].key {
			return true
		}
	}
	return false
}

func checkSetAgainstModel[V any](t *testing.T, s *nodeSet[V], a *alloc[V], md *setModel, ent func(element[V]) ment) {
	t.Helper()
	if s.length() != len(md.m) {
		t.Fatalf("length %d, model %d", s.length(), len(md.m))
	}
	if !a.arr {
		for j, e := range s.e[len(s.e):cap(s.e)] {
			if !reflect.ValueOf(e).IsZero() {
				t.Fatalf("run of %d keeps an element in free slot %d", len(s.e), len(s.e)+j)
			}
		}
		if err := s.checkSize(a, len(md.m)); err != nil {
			t.Fatal(err)
		}
	}
	if len(md.m) == 0 {
		return
	}
	if s.maxKey(a) != md.m[0].key || s.minKey(a) != md.m[len(md.m)-1].key {
		t.Fatalf("extremes [%d,%d], model [%d,%d]", s.minKey(a), s.maxKey(a), md.m[len(md.m)-1].key, md.m[0].key)
	}
	got := make([]ment, 0, len(md.m))
	for _, e := range s.ascending(a, nil) {
		got = append(got, ent(e))
	}
	slices.Reverse(got)
	want := md.m
	if !md.exact {
		// Same keys in the same places, equal keys in any order.
		byKeyThenID := func(x, y ment) int {
			if x.key != y.key {
				if x.key > y.key {
					return -1
				}
				return 1
			}
			if x.id < y.id {
				return -1
			}
			return 1
		}
		want = slices.Clone(md.m)
		slices.SortFunc(want, byKeyThenID)
		slices.SortFunc(got, byKeyThenID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("contents differ from the model:\n got  %v\n want %v", got, want)
	}
}

// TestSetModel checks both set representations, with a small and a
// pointer-carrying value type, against the sorted-slice model. The list
// rows also insist that the sequences reached what a run does differently
// from the block list it replaced: merges with ties on both sides, swaps
// landing at either end of the shift, buffers filled to the last slot,
// growth past the largest class, and the moves down a class and releases
// that give buffers back to the recycler.
func TestSetModel(t *testing.T) {
	intVal := func(id uint64) int { return int(id) }
	intID := func(v int) uint64 { return uint64(v) }
	bytesVal := func(id uint64) []byte { return binary.LittleEndian.AppendUint64(nil, id) }
	bytesID := func(v []byte) uint64 { return binary.LittleEndian.Uint64(v) }
	reached := func(t *testing.T, st setStats) {
		t.Helper()
		for name, n := range map[string]int{
			"a merge with ties in the run and against the set": st.tiedMerges,
			"a swap landing at the minimum":                    st.swapAtMin,
			"a swap landing below the maximum":                 st.swapBelowMax,
			"a full buffer":                                    st.full,
			"a run past the largest class":                     st.oversize,
			"a move down a class":                              st.shrunk,
			"a release":                                        st.released,
		} {
			if n == 0 {
				t.Errorf("no sequence reached %s", name)
			}
		}
	}

	t.Run("list/int", func(t *testing.T) {
		reached(t, runSetModel(t, false, intVal, intID, modelKeys))
	})
	t.Run("list/bytes", func(t *testing.T) {
		reached(t, runSetModel(t, false, bytesVal, bytesID, modelKeys))
	})
	// Four keys: equal keys fill whole buffers and every merge meets ties
	// on both sides, where behind-greater and in-front-of-equal must
	// still hold.
	t.Run("list/int/fourkeys", func(t *testing.T) {
		reached(t, runSetModel(t, false, intVal, intID, fewKeys))
	})
	t.Run("array/int", func(t *testing.T) {
		runSetModel(t, true, intVal, intID, modelKeys)
	})
	t.Run("array/bytes", func(t *testing.T) {
		runSetModel(t, true, bytesVal, bytesID, modelKeys)
	})
}
