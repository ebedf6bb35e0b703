package core

import (
	"fmt"

	"repro/internal/metrics"
)

// CheckInvariants verifies the structural invariants of the queue. It must
// only be called while the queue is quiescent (no concurrent operations);
// it takes no locks. Checked invariants:
//
//   - every node's cached count and max agree with its set's contents,
//   - list sets are sorted descending, every back link mirrors its
//     forward link, the tail is the walk's last block and the walk finds
//     count elements,
//   - a nonempty node's parent is nonempty with parent.max >= node.max
//     (the mound invariant, §3.1),
//   - the pool policy's structural invariants hold: for the batch pool,
//     the unclaimed region is marked full, sorted ascending, and within
//     capacity.
//
// Tests call it between operation batches and after stress runs.
func (q *Queue[V]) CheckInvariants() error {
	top := int(q.leafLevel.Load())
	for level := 0; level <= top; level++ {
		nodes := q.levels[level]
		if len(nodes) != 1<<level {
			return fmt.Errorf("level %d has %d nodes, want %d", level, len(nodes), 1<<level)
		}
		for slot := range nodes {
			n := &nodes[slot]
			if err := q.checkNode(level, slot, n); err != nil {
				return err
			}
		}
	}
	return q.checkPool()
}

func (q *Queue[V]) checkNode(level, slot int, n *tnode[V]) error {
	cnt := int(n.count.Load())
	if err := n.set.checkSize(cnt); err != nil {
		return fmt.Errorf("node (%d,%d): %w", level, slot, err)
	}
	if cnt == 0 {
		return nil
	}
	elems := n.set.ascending(nil)
	for i := 1; i < len(elems); i++ {
		if elems[i-1].key > elems[i].key {
			return fmt.Errorf("node (%d,%d): set not ordered at %d", level, slot, i)
		}
	}
	if got := elems[len(elems)-1].key; got != n.max.Load() {
		return fmt.Errorf("node (%d,%d): cached max %d != set max %d", level, slot, n.max.Load(), got)
	}
	// Cross-check the set's O(1) extreme queries against the full walk;
	// for a list this validates the tail pointer.
	if got := n.set.minKey(); got != elems[0].key {
		return fmt.Errorf("node (%d,%d): set minKey %d != walked min %d", level, slot, got, elems[0].key)
	}
	if got := n.set.maxKey(); got != elems[len(elems)-1].key {
		return fmt.Errorf("node (%d,%d): set maxKey %d != walked max %d", level, slot, got, elems[len(elems)-1].key)
	}
	if level > 0 {
		p := q.node(level-1, slot/2)
		if p.count.Load() == 0 {
			return fmt.Errorf("node (%d,%d) nonempty but parent empty", level, slot)
		}
		if p.max.Load() < n.max.Load() {
			return fmt.Errorf("mound invariant violated at (%d,%d): parent max %d < child max %d",
				level, slot, p.max.Load(), n.max.Load())
		}
	}
	return nil
}

// checkSize verifies that the set holds size elements, and for a list its
// shape: prev mirrors next from a head with no prev to the tail with no
// next; no linked block is empty; each block is descending and its last
// key is no smaller than the next block's first; and the counts sum to
// size.
func (s *nodeSet[V]) checkSize(size int) error {
	if s.arr != nil {
		if got := len(s.arr.elems); got != size {
			return fmt.Errorf("cached count %d != array length %d", size, got)
		}
		return nil
	}
	var last *lnode[V]
	blocks, elems := 0, 0
	for b := s.head; b != nil; last, b = b, b.next {
		if b.prev != last {
			return fmt.Errorf("list block %d: back link does not mirror the forward link", blocks)
		}
		if b.n < 1 || b.n > blockLen {
			return fmt.Errorf("list block %d holds %d elements", blocks, b.n)
		}
		for j := 1; j < b.n; j++ {
			if b.e[j-1].key < b.e[j].key {
				return fmt.Errorf("list block %d not descending at %d", blocks, j)
			}
		}
		if last != nil && last.e[last.n-1].key < b.e[0].key {
			return fmt.Errorf("list block %d starts above the previous block's last key", blocks)
		}
		blocks++
		if elems += b.n; elems > size {
			break
		}
	}
	if elems != size {
		return fmt.Errorf("list walk found %d elements (or more), cached count says %d", elems, size)
	}
	if s.tail != last {
		return fmt.Errorf("list tail is not the last block of the walk")
	}
	return nil
}

func (q *Queue[V]) checkPool() error {
	if q.pool == nil {
		return nil
	}
	return q.pool.check()
}

// TreeStats summarizes the tree's shape for the §3.2 set-stability
// experiment and for tuning diagnostics.
type TreeStats struct {
	// LeafLevel is the deepest allocated level.
	LeafLevel int
	// Nodes and Elements count allocated TNodes and queued elements.
	Nodes, Elements int
	// NonLeafSets summarizes the set sizes of nonempty nodes above the
	// leaf level — the paper reports mean 32 with stddev 2.76 for
	// targetLen=32 after 8M mixed operations.
	NonLeafSets metrics.Summary
	// AllSets summarizes set sizes over all nonempty nodes.
	AllSets metrics.Summary
	// PoolRemaining is the number of unclaimed pool elements.
	PoolRemaining int
}

// Stats computes a TreeStats snapshot. Like CheckInvariants it is meant for
// quiescent queues; under concurrency it is a best-effort estimate.
func (q *Queue[V]) Stats() TreeStats {
	top := int(q.leafLevel.Load())
	st := TreeStats{LeafLevel: top}
	var nonLeaf, all []float64
	for level := 0; level <= top; level++ {
		nodes := q.levels[level]
		st.Nodes += len(nodes)
		for i := range nodes {
			c := int(nodes[i].count.Load())
			st.Elements += c
			if c == 0 {
				continue
			}
			all = append(all, float64(c))
			if level < top {
				nonLeaf = append(nonLeaf, float64(c))
			}
		}
	}
	if p := q.PoolOccupancy(); p > 0 {
		st.PoolRemaining = int(p)
		st.Elements += int(p)
	}
	st.NonLeafSets = metrics.Summarize(nonLeaf)
	st.AllSets = metrics.Summarize(all)
	return st
}
