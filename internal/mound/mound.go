// Package mound implements the mound of Liu and Spear (§2.2 of the ZMSQ
// paper): a concurrent heap structured as a binary tree of sorted lists,
// where every parent list's head is at least as large as its children's
// heads. It is the structural ancestor of ZMSQ and the paper's strict
// baseline.
//
// Insert(k) picks a random leaf, binary-searches the leaf-to-root path for
// the node where k can become the new list head without violating the
// invariant, and pushes k there. ExtractMax pops the root's head and then
// swaps lists downward to restore the invariant. Unlike ZMSQ there is no
// forced insertion, no parent-min swap, no splitting and no extraction
// pool — which is why the mound devolves toward one-element lists (a plain
// heap) under mixed workloads, the behavior §2.2 documents and Figure 3/5
// display.
//
// This implementation uses a lock per node with the same parent-before-
// child ordering as ZMSQ, making the two directly comparable; the original
// lock-free mound's extraction also serializes at the root, which is the
// property the comparison cares about.
package mound

import (
	"sync"
	"sync/atomic"

	"repro/internal/xrand"
)

const maxLevels = 24

type node struct {
	mu   sync.Mutex
	head *lnode
	// top caches the head key (valid when size > 0) for optimistic reads.
	top  atomic.Uint64
	size atomic.Int64
	_    [24]byte
}

type lnode struct {
	key  uint64
	next *lnode
}

// Mound is a concurrent strict max-priority queue. All methods are safe
// for concurrent use.
type Mound struct {
	levels    [maxLevels][]node
	leafLevel atomic.Int32
	growMu    sync.Mutex
	rngs      sync.Pool
	seed      atomic.Uint64
}

// New returns an empty mound.
func New() *Mound {
	m := &Mound{}
	m.levels[0] = make([]node, 1)
	m.rngs.New = func() any {
		return xrand.New(xrand.Mix64(m.seed.Add(1)))
	}
	return m
}

func (m *Mound) node(level, slot int) *node { return &m.levels[level][slot] }

func (m *Mound) expand(from int) bool {
	m.growMu.Lock()
	defer m.growMu.Unlock()
	cur := int(m.leafLevel.Load())
	if cur != from {
		return true
	}
	if cur+1 >= maxLevels {
		return false
	}
	m.levels[cur+1] = make([]node, 1<<(cur+1))
	m.leafLevel.Store(int32(cur + 1))
	return true
}

// atMost reports whether the node is empty or its head key is <= key.
func (n *node) atMost(key uint64) bool {
	return n.size.Load() == 0 || n.top.Load() <= key
}

// Insert adds key to the mound.
func (m *Mound) Insert(key uint64) {
	r := m.rngs.Get().(*xrand.Rand)
	defer m.rngs.Put(r)
	for {
		level, slot, ok := m.selectLeaf(r, key)
		if !ok {
			// Depth cap: push onto the root, which always succeeds.
			root := m.node(0, 0)
			root.mu.Lock()
			m.pushLocked(root, key)
			root.mu.Unlock()
			return
		}
		lvl, slt := m.searchPath(level, slot, key)
		if m.insertAt(lvl, slt, key) {
			return
		}
	}
}

func (m *Mound) selectLeaf(r *xrand.Rand, key uint64) (int, int, bool) {
	for {
		level := int(m.leafLevel.Load())
		attempts := level
		if attempts < 1 {
			attempts = 1
		}
		for a := 0; a < attempts; a++ {
			slot := 0
			if level > 0 {
				slot = int(r.Uint64n(uint64(1) << level))
			}
			if m.node(level, slot).atMost(key) {
				return level, slot, true
			}
		}
		if !m.expand(level) {
			return 0, 0, false
		}
	}
}

func (m *Mound) searchPath(level, slot int, key uint64) (int, int) {
	lo, hi := 0, level
	for lo < hi {
		mid := (lo + hi) / 2
		if m.node(mid, slot>>uint(level-mid)).atMost(key) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, slot >> uint(level-lo)
}

// pushLocked makes key the new head of locked node n. In the mound, every
// insert is a head push: the list stays sorted descending because the
// chosen node's previous head was <= key.
func (m *Mound) pushLocked(n *node, key uint64) {
	n.head = &lnode{key: key, next: n.head}
	n.top.Store(key)
	n.size.Add(1)
}

func (m *Mound) insertAt(level, slot int, key uint64) bool {
	n := m.node(level, slot)
	if level == 0 {
		n.mu.Lock()
		if n.size.Load() > 0 && key < n.top.Load() {
			n.mu.Unlock()
			return false
		}
		m.pushLocked(n, key)
		n.mu.Unlock()
		return true
	}
	p := m.node(level-1, slot/2)
	p.mu.Lock()
	n.mu.Lock()
	if p.size.Load() == 0 || key >= p.top.Load() ||
		(n.size.Load() > 0 && key < n.top.Load()) {
		n.mu.Unlock()
		p.mu.Unlock()
		return false
	}
	p.mu.Unlock()
	m.pushLocked(n, key)
	n.mu.Unlock()
	return true
}

// ExtractMax removes and returns the largest key. ok is false only when
// the mound was observed empty at the root.
func (m *Mound) ExtractMax() (uint64, bool) {
	root := m.node(0, 0)
	root.mu.Lock()
	if root.size.Load() == 0 {
		root.mu.Unlock()
		return 0, false
	}
	key := root.head.key
	root.head = root.head.next
	root.size.Add(-1)
	if root.head != nil {
		root.top.Store(root.head.key)
	}
	m.swapDown(0, 0) // unlocks the chain
	return key, true
}

// swapDown restores the invariant from the locked node (level, slot)
// downward, exchanging whole lists with the larger child as needed.
func (m *Mound) swapDown(level, slot int) {
	n := m.node(level, slot)
	for {
		if int32(level) >= m.leafLevel.Load() {
			n.mu.Unlock()
			return
		}
		lSlot, rSlot := 2*slot, 2*slot+1
		l, r := m.node(level+1, lSlot), m.node(level+1, rSlot)
		l.mu.Lock()
		r.mu.Lock()
		c, cSlot := l, lSlot
		if r.size.Load() > 0 && (l.size.Load() == 0 || r.top.Load() > l.top.Load()) {
			c, cSlot = r, rSlot
		}
		if c.size.Load() == 0 || (n.size.Load() > 0 && n.top.Load() >= c.top.Load()) {
			r.mu.Unlock()
			l.mu.Unlock()
			n.mu.Unlock()
			return
		}
		n.head, c.head = c.head, n.head
		nt, ct := n.top.Load(), c.top.Load()
		n.top.Store(ct)
		c.top.Store(nt)
		ns, cs := n.size.Load(), c.size.Load()
		n.size.Store(cs)
		c.size.Store(ns)
		if c == l {
			r.mu.Unlock()
		} else {
			l.mu.Unlock()
		}
		n.mu.Unlock()
		n, level, slot = c, level+1, cSlot
	}
}

// Len returns a snapshot element count (exact when quiescent).
func (m *Mound) Len() int {
	var total int64
	top := int(m.leafLevel.Load())
	for l := 0; l <= top; l++ {
		nodes := m.levels[l]
		for i := range nodes {
			total += nodes[i].size.Load()
		}
	}
	return int(total)
}

// Name implements the harness's Named interface.
func (m *Mound) Name() string { return "mound" }

// CheckInvariants validates the mound structure; quiescent use only.
func (m *Mound) CheckInvariants() error {
	top := int(m.leafLevel.Load())
	for level := 0; level <= top; level++ {
		nodes := m.levels[level]
		for slot := range nodes {
			n := &nodes[slot]
			var cnt int64
			var prev uint64
			first := true
			for ln := n.head; ln != nil; ln = ln.next {
				if !first && ln.key > prev {
					return errNotSorted(level, slot)
				}
				prev = ln.key
				first = false
				cnt++
			}
			if cnt != n.size.Load() {
				return errBadSize(level, slot)
			}
			if cnt > 0 {
				if n.top.Load() != n.head.key {
					return errBadTop(level, slot)
				}
				if level > 0 {
					p := m.node(level-1, slot/2)
					if p.size.Load() == 0 || p.top.Load() < n.top.Load() {
						return errInvariant(level, slot)
					}
				}
			}
		}
	}
	return nil
}
