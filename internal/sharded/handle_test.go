package sharded

import (
	"runtime"
	"sort"
	"testing"
)

// occupied returns the indices of the shards that hold elements.
func occupied[V any](q *Queue[V]) []int {
	var on []int
	for i := range q.shards {
		if q.shards[i].q.Len() > 0 {
			on = append(on, i)
		}
	}
	return on
}

// TestHandleKeepsHome checks the reason Handle exists: collections between
// calls, which make sync.Pool forget the queue's pooled contexts, do not
// move a Handle's inserts to another shard; and a second Handle gets a home
// of its own. Conservation is checked through the Handle's extraction
// methods.
func TestHandleKeepsHome(t *testing.T) {
	q := New[struct{}](testCfg(4, 8))
	h := q.NewHandle()
	var want []uint64
	insert := func(h *Handle[struct{}], n int) {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(len(want))
			want = append(want, keys[i])
		}
		h.InsertBatch(keys, nil)
	}
	insert(h, 100)
	home := occupied(q)
	if len(home) != 1 {
		t.Fatalf("one batch landed on shards %v", home)
	}
	for round := 0; round < 3; round++ {
		runtime.GC()
		runtime.GC()
		insert(h, 100)
		if on := occupied(q); len(on) != 1 || on[0] != home[0] {
			t.Fatalf("after %d idle collections the handle's inserts are on shards %v, were on %v", 2*(round+1), on, home)
		}
	}
	insert(q.NewHandle(), 100)
	if on := occupied(q); len(on) != 2 {
		t.Fatalf("a second handle shares the first one's home: shards %v", on)
	}
	h.InsertBatch(nil, nil)

	var got []uint64
	if k, _, ok := h.TryExtractMax(); ok {
		got = append(got, k)
	}
	for _, e := range h.ExtractBatch(nil, len(want)) {
		got = append(got, e.Key)
	}
	if _, _, ok := h.TryExtractMax(); ok {
		t.Fatal("extraction succeeded on a drained queue")
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(want) {
		t.Fatalf("extracted %d of %d", len(got), len(want))
	}
	for i, k := range got {
		if k != want[i] {
			t.Fatalf("conservation broken at %d: key %d", i, k)
		}
	}
}
