// Package quality measures the relaxation quality of a priority queue run:
// for every extraction it reports the rank of the returned key among the
// elements present at that moment (rank 0 = the true maximum). The paper's
// Table 1 reports a thresholded version of this (fraction of extractions
// within the top-k); the rank tracker generalizes it to full rank-error
// distributions, which the extended accuracy tool prints.
//
// The tracker needs an exact multiset with O(log n) insert, delete and
// rank-of-key queries; this file implements it as an order-statistics
// treap (randomized balanced BST with subtree sizes). Stdlib-only, so the
// treap is written from scratch and property-tested against a sorted-slice
// model.
package quality

import "repro/internal/xrand"

// treapNode is a node of the order-statistics treap. count handles
// duplicate keys without deepening the tree.
type treapNode struct {
	key         uint64
	priority    uint64
	count       int // multiplicity of key
	size        int // total multiplicity in this subtree
	left, right *treapNode
}

func nodeSize(n *treapNode) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *treapNode) update() {
	n.size = n.count + nodeSize(n.left) + nodeSize(n.right)
}

// Treap is an order-statistics multiset of uint64 keys.
type Treap struct {
	root *treapNode
	rng  xrand.Rand
}

// NewTreap returns an empty treap seeded deterministically.
func NewTreap(seed uint64) *Treap {
	t := &Treap{}
	t.rng.Seed(seed)
	return t
}

// Len returns the total multiplicity.
func (t *Treap) Len() int { return nodeSize(t.root) }

// Insert adds one occurrence of key.
func (t *Treap) Insert(key uint64) {
	t.root = t.insert(t.root, key)
}

func (t *Treap) insert(n *treapNode, key uint64) *treapNode {
	if n == nil {
		return &treapNode{key: key, priority: t.rng.Uint64(), count: 1, size: 1}
	}
	switch {
	case key == n.key:
		n.count++
	case key < n.key:
		n.left = t.insert(n.left, key)
		if n.left.priority > n.priority {
			n = rotateRight(n)
		}
	default:
		n.right = t.insert(n.right, key)
		if n.right.priority > n.priority {
			n = rotateLeft(n)
		}
	}
	n.update()
	return n
}

// Delete removes one occurrence of key, reporting whether it was present.
func (t *Treap) Delete(key uint64) bool {
	var deleted bool
	t.root, deleted = t.delete(t.root, key)
	return deleted
}

func (t *Treap) delete(n *treapNode, key uint64) (*treapNode, bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch {
	case key < n.key:
		n.left, deleted = t.delete(n.left, key)
	case key > n.key:
		n.right, deleted = t.delete(n.right, key)
	default:
		if n.count > 1 {
			n.count--
			n.update()
			return n, true
		}
		// Remove the node itself: rotate the higher-priority child up
		// (preserving the heap order on priorities) and recurse until the
		// node reaches a position with at most one child.
		if n.left == nil {
			return n.right, true
		}
		if n.right == nil {
			return n.left, true
		}
		if n.left.priority > n.right.priority {
			n = rotateRight(n)
			n.right, deleted = t.delete(n.right, key)
		} else {
			n = rotateLeft(n)
			n.left, deleted = t.delete(n.left, key)
		}
	}
	n.update()
	return n, deleted
}

// RankFromTop returns the number of elements strictly greater than key —
// i.e. the 0-based rank of key counted from the maximum. ok is false if key
// is not present.
func (t *Treap) RankFromTop(key uint64) (rank int, ok bool) {
	n := t.root
	greater := 0
	for n != nil {
		switch {
		case key == n.key:
			return greater + nodeSize(n.right), true
		case key < n.key:
			greater += n.count + nodeSize(n.right)
			n = n.left
		default:
			n = n.right
		}
	}
	return 0, false
}

func rotateRight(n *treapNode) *treapNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.update()
	l.update()
	return l
}

func rotateLeft(n *treapNode) *treapNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.update()
	r.update()
	return r
}
