package core

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

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

// runSetModel drives one set through random sequences of every mutating
// operation and compares it with the model after each.
func runSetModel[V any](t *testing.T, mk func() nodeSet[V], val func(uint64) V, id func(V) uint64) {
	r := xrand.New(0x5e7)
	a := &alloc[V]{}
	var serial uint64
	elem := func(k uint64) element[V] {
		serial++
		return element[V]{key: k, val: val(serial)}
	}
	ent := func(e element[V]) ment { return ment{e.key, id(e.val)} }

	for trial := 0; trial < 400; trial++ {
		s := mk()
		_, isList := s.(*listSet[V])
		md := &setModel{exact: isList}
		// Low bias keeps the set at sizes 0-2, high bias grows it past a
		// split's worth.
		insertBias := 20 + r.Intn(70)
		for step := 0; step < 200; step++ {
			n := len(md.m)
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
				out := s.splitLower(a, nil)
				if len(out) != n/2 {
					t.Fatalf("splitLower of %d returned %d", n, len(out))
				}
				if isList {
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
				demoted, newMin := s.swapMin(a, e)
				md.insertBehind(k, id(e.val))
				md.remove(t, ent(demoted), n)
				if want := md.m[n-1].key; newMin != want {
					t.Fatalf("swapMin reported new min %d, want %d", newMin, want)
				}
			}
			checkSetAgainstModel(t, s, md, ent)
		}
	}
}

func checkSetAgainstModel[V any](t *testing.T, s nodeSet[V], md *setModel, ent func(element[V]) ment) {
	t.Helper()
	if s.length() != len(md.m) {
		t.Fatalf("length %d, model %d", s.length(), len(md.m))
	}
	if ls, ok := s.(*listSet[V]); ok {
		var fwd, back []*lnode[V]
		for n := ls.head; n != nil; n = n.next {
			fwd = append(fwd, n)
		}
		for n := ls.tail; n != nil; n = n.prev {
			back = append(back, n)
		}
		slices.Reverse(back)
		if !slices.Equal(fwd, back) {
			t.Fatalf("forward walk (%d nodes) is not the backward walk reversed (%d nodes)", len(fwd), len(back))
		}
		if len(fwd) != ls.size {
			t.Fatalf("walked %d nodes, size %d", len(fwd), ls.size)
		}
		if len(fwd) > 0 && (ls.head.prev != nil || ls.tail.next != nil) {
			t.Fatal("head has a prev or tail has a next")
		}
		if len(fwd) == 0 && (ls.head != nil || ls.tail != nil) {
			t.Fatal("empty list keeps a head or a tail")
		}
		if err := ls.checkLinks(); err != nil {
			t.Fatal(err)
		}
	}
	if len(md.m) == 0 {
		return
	}
	if s.maxKey() != md.m[0].key || s.minKey() != md.m[len(md.m)-1].key {
		t.Fatalf("extremes [%d,%d], model [%d,%d]", s.minKey(), s.maxKey(), md.m[len(md.m)-1].key, md.m[0].key)
	}
	got := make([]ment, 0, len(md.m))
	for _, e := range s.ascending(nil) {
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
// pointer-carrying value type, against the sorted-slice model.
func TestSetModel(t *testing.T) {
	intVal := func(id uint64) int { return int(id) }
	intID := func(v int) uint64 { return uint64(v) }
	bytesVal := func(id uint64) []byte { return binary.LittleEndian.AppendUint64(nil, id) }
	bytesID := func(v []byte) uint64 { return binary.LittleEndian.Uint64(v) }

	t.Run("list/int", func(t *testing.T) {
		runSetModel(t, func() nodeSet[int] { return &listSet[int]{} }, intVal, intID)
	})
	t.Run("list/bytes", func(t *testing.T) {
		runSetModel(t, func() nodeSet[[]byte] { return &listSet[[]byte]{} }, bytesVal, bytesID)
	})
	t.Run("array/int", func(t *testing.T) {
		runSetModel(t, func() nodeSet[int] { return newArraySet[int](16) }, intVal, intID)
	})
	t.Run("array/bytes", func(t *testing.T) {
		runSetModel(t, func() nodeSet[[]byte] { return newArraySet[[]byte](16) }, bytesVal, bytesID)
	})
}
