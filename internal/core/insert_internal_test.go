package core

import (
	"testing"

	"repro/internal/xrand"
)

// buildLadder constructs a queue whose path maxes are known: root holds
// the largest keys, each level below holds strictly smaller ones, so
// binarySearchPosition's monotone predicate can be checked exactly.
func buildLadder(t *testing.T) *Queue[int] {
	t.Helper()
	q := New[int](Config{Batch: 0, TargetLen: 4})
	ctx := q.getCtx()
	defer q.putCtx(ctx)
	// Grow three levels manually.
	for q.leafLevel.Load() < 3 {
		if !q.expandTree(int(q.leafLevel.Load())) {
			t.Fatal("expand failed")
		}
	}
	// Fill: level L node gets keys around 1000-100*L.
	for level := 0; level <= 3; level++ {
		for slot := 0; slot < 1<<level; slot++ {
			n := q.node(level, slot)
			n.lock.Lock()
			base := uint64(1000 - 100*level)
			q.insertMaxLocked(ctx, n, element[int]{key: base})
			q.addLocked(ctx, n, element[int]{key: base - 10})
			n.lock.Unlock()
		}
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatalf("ladder invalid: %v", err)
	}
	return q
}

func TestBinarySearchPositionLadder(t *testing.T) {
	q := buildLadder(t)
	ctx := q.getCtx()
	defer q.putCtx(ctx)
	// Keys between level maxes must land exactly at the boundary node:
	// node at level L has max 1000-100L; key 950 satisfies max<=key only
	// at... level 1 max = 900 <= 950 < level 0 max 1000 → level 1.
	cases := []struct {
		key       uint64
		wantLevel int
	}{
		{2000, 0}, // above everything → root
		{1000, 0}, // equals root max → root
		{950, 1},
		{850, 2},
		{750, 3},
		{10, 3}, // below everything → stays at the leaf
	}
	for _, c := range cases {
		level, slot := q.binarySearchPosition(ctx, 3, 0, c.key)
		if level != c.wantLevel {
			t.Errorf("key %d: landed at level %d, want %d", c.key, level, c.wantLevel)
		}
		if slot != 0>>uint(3-level) {
			t.Errorf("key %d: slot %d not on the leaf's path", c.key, slot)
		}
	}
}

func TestSelectPositionForcedRequiresDepth(t *testing.T) {
	// Forced insertion is forbidden on levels 0..3 (§3.2): a shallow tree
	// full of high keys must expand rather than force.
	q := New[int](Config{Batch: 0, TargetLen: 2})
	for i := 0; i < 20; i++ {
		q.Insert(1000+uint64(i), 0)
	}
	startLevel := q.leafLevel.Load()
	ctx := q.getCtx()
	defer q.putCtx(ctx)
	level, _, force := q.selectPosition(ctx, 1) // tiny key, everything bigger
	if force && level <= 3 {
		t.Fatalf("forced insert chosen at level %d", level)
	}
	_ = startLevel
}

func TestExpandTreeIdempotent(t *testing.T) {
	q := New[int](Config{})
	if q.leafLevel.Load() != 0 {
		t.Fatal("fresh tree not at level 0")
	}
	if !q.expandTree(0) {
		t.Fatal("expand failed")
	}
	if q.leafLevel.Load() != 1 {
		t.Fatalf("leafLevel = %d", q.leafLevel.Load())
	}
	// Expanding "from" a stale level is a no-op success.
	if !q.expandTree(0) {
		t.Fatal("stale expand should succeed without growing")
	}
	if q.leafLevel.Load() != 1 {
		t.Fatalf("stale expand grew the tree to %d", q.leafLevel.Load())
	}
	if len(q.levels[1]) != 2 {
		t.Fatalf("level 1 has %d nodes", len(q.levels[1]))
	}
}

func TestSwapContents(t *testing.T) {
	q := New[int](Config{Batch: 0, TargetLen: 4})
	ctx := q.getCtx()
	defer q.putCtx(ctx)
	q.expandTree(0)
	a, b := q.node(1, 0), q.node(1, 1)
	a.lock.Lock()
	b.lock.Lock()
	q.insertMaxLocked(ctx, a, element[int]{key: 10, val: 1})
	q.insertMaxLocked(ctx, b, element[int]{key: 99, val: 2})
	q.addLocked(ctx, b, element[int]{key: 50, val: 3})
	swapContents(a, b)
	if a.count.Load() != 2 || b.count.Load() != 1 {
		t.Fatalf("counts after swap: %d, %d", a.count.Load(), b.count.Load())
	}
	if a.max.Load() != 99 || a.set.minKey() != 50 {
		t.Fatalf("a max/min = %d/%d", a.max.Load(), a.set.minKey())
	}
	if b.max.Load() != 10 || b.set.minKey() != 10 {
		t.Fatalf("b max/min = %d/%d", b.max.Load(), b.set.minKey())
	}
	b.lock.Unlock()
	a.lock.Unlock()
}

func TestMaybeSplitDistributesToChildren(t *testing.T) {
	q := New[int](Config{Batch: 0, TargetLen: 4}) // split above 8
	ctx := q.getCtx()
	defer q.putCtx(ctx)
	root := q.root()
	root.lock.Lock()
	for i := 1; i <= 9; i++ {
		q.addLocked(ctx, root, element[int]{key: uint64(i * 10)})
	}
	q.maybeSplit(ctx, 0, 0, root) // unlocks
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := root.count.Load(); got != 5 {
		t.Fatalf("root kept %d elements, want upper 5", got)
	}
	if root.set.minKey() != 50 {
		t.Fatalf("root min = %d, want 50 (upper half kept)", root.set.minKey())
	}
	l, r := q.node(1, 0), q.node(1, 1)
	if l.count.Load()+r.count.Load() != 4 {
		t.Fatalf("children hold %d, want 4", l.count.Load()+r.count.Load())
	}
	// Balanced distribution.
	if diff := l.count.Load() - r.count.Load(); diff < -1 || diff > 1 {
		t.Fatalf("unbalanced split: %d vs %d", l.count.Load(), r.count.Load())
	}
}

func TestRootFallbackInsert(t *testing.T) {
	q := New[int](Config{Batch: 0, TargetLen: 4})
	ctx := q.getCtx()
	defer q.putCtx(ctx)
	r := xrand.New(3)
	for i := 0; i < 200; i++ {
		q.rootFallbackInsert(ctx, element[int]{key: r.Uint64() % 100})
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 200 {
		t.Fatalf("Len = %d", q.Len())
	}
}
