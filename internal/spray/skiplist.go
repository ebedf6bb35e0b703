// Package spray implements the SprayList of Alistarh, Kopinsky, Li and
// Shavit (SPAA 2015), the relaxed priority queue the ZMSQ paper compares
// against as state of the art (§2.1, §4).
//
// The underlying structure is a lock-free skiplist with lazy deletion:
// ExtractMax logically deletes a node with one CAS and leaves physical
// unlinking to later traversals (helping). Go has no pointer tagging, so
// each next-pointer holds an immutable (successor, marked) pair — the
// standard Harris-list encoding for managed languages: replacing the pair
// pointer updates successor and mark in one CAS, and any concurrent update
// of the same link fails its CAS because the pair object changed.
//
// A node's deletion status lives exclusively in its bottom-level link, so
// upper tower links are written only by the inserting goroutine (no
// mark-erasure races); searches at every level consult the bottom link to
// decide whether to help unlink.
//
// Relaxation comes from the "spray": instead of contending on the first
// node, an extraction performs a random descending walk from a height
// determined by the thread count p, landing on one of the first
// O(p·log³p) elements with near-uniform probability. Two properties the
// ZMSQ paper leans on fall out directly and are reproduced here: the spray
// width — and hence the inaccuracy — grows with p, and an extraction can
// fail (return ok=false) even when the list is nonempty, because the walk
// met only already-claimed nodes.
//
// The paper also notes the SprayList is not memory-safe without a tracing
// garbage collector: logically deleted nodes can remain reachable
// indefinitely. Go's GC plays that role here, exactly as the paper's C++
// experiments simply leaked.
package spray

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/xrand"
)

const maxHeight = 24

// link is the immutable (successor, marked) pair a next-pointer refers to.
type link struct {
	succ   *node
	marked bool
}

type node struct {
	sortKey uint64 // ascending order; the adapter inverts priorities
	next    []atomic.Pointer[link]
}

// deleted reports the node's logical-deletion status (bottom link's mark).
func (n *node) deleted() bool { return n.next[0].Load().marked }

// SprayList is a relaxed max-priority queue over uint64 keys. All methods
// are safe for concurrent use.
type SprayList struct {
	head    *node
	threads int // p, the configured thread count governing spray width
	rngs    sync.Pool
	seed    atomic.Uint64
}

// New returns an empty SprayList tuned for p concurrent threads (p >= 1).
// The spray width — and therefore the relaxation — scales with p, per the
// original design. With p == 1 the list is a strict priority queue.
func New(p int) *SprayList {
	if p < 1 {
		p = 1
	}
	h := &node{next: make([]atomic.Pointer[link], maxHeight)}
	emptyTail := &link{}
	for i := range h.next {
		h.next[i].Store(emptyTail)
	}
	s := &SprayList{head: h, threads: p}
	s.rngs.New = func() any { return xrand.New(xrand.Mix64(s.seed.Add(1) * 0x9e3779b97f4a7c15)) }
	return s
}

// Insert adds key (larger key = higher priority).
func (s *SprayList) Insert(key uint64) {
	s.insertSorted(^key)
}

// Name implements the harness's Named interface.
func (s *SprayList) Name() string { return "spraylist" }

func randomHeight(r *xrand.Rand) int {
	h := 1 + bits.TrailingZeros64(r.Uint64()|1<<(maxHeight-1))
	if h > maxHeight {
		h = maxHeight
	}
	return h
}

// insertSorted performs a lock-free skiplist insertion on the internal
// ascending sort key.
func (s *SprayList) insertSorted(sk uint64) {
	r := s.rngs.Get().(*xrand.Rand)
	height := randomHeight(r)
	s.rngs.Put(r)

	n := &node{sortKey: sk, next: make([]atomic.Pointer[link], height)}
	var preds, succs [maxHeight]*node
	for {
		s.find(sk, &preds, &succs)
		// Link the bottom level; this is the linearization point. The CAS
		// fails if the predecessor's link changed — including if the
		// predecessor was logically deleted, since marking replaces the
		// pair object.
		n.next[0].Store(&link{succ: succs[0]})
		bottom := preds[0].next[0].Load()
		if bottom.marked || bottom.succ != succs[0] {
			continue
		}
		if !preds[0].next[0].CompareAndSwap(bottom, &link{succ: n}) {
			continue
		}
		break
	}
	// Build the tower. Upper links of n are written only by this
	// goroutine; a CAS failure on a predecessor triggers a fresh search.
	for lvl := 1; lvl < height; lvl++ {
		for {
			if n.deleted() {
				return // extracted before the tower finished; stop linking
			}
			n.next[lvl].Store(&link{succ: succs[lvl]})
			upper := preds[lvl].next[lvl].Load()
			if upper.succ == succs[lvl] && !upper.marked &&
				preds[lvl].next[lvl].CompareAndSwap(upper, &link{succ: n}) {
				break
			}
			s.find(sk, &preds, &succs)
		}
	}
}

// find locates, at every level, the last node with sortKey < sk (preds) and
// its successor (succs), physically unlinking logically-deleted nodes along
// the way (Harris helping).
func (s *SprayList) find(sk uint64, preds, succs *[maxHeight]*node) {
retry:
	for {
		pred := s.head
		for lvl := maxHeight - 1; lvl >= 0; lvl-- {
			curLink := pred.next[lvl].Load()
			for {
				if curLink.marked {
					// pred itself was claimed after we stepped onto it. A
					// CAS on its link would install an UNMARKED pair,
					// resurrecting a logically deleted node (which could
					// then be claimed — and delivered — a second time).
					// Restart the search from the head instead.
					continue retry
				}
				cur := curLink.succ
				if cur == nil {
					break
				}
				if cur.deleted() {
					// Help unlink cur at this level.
					next := cur.next[minInt(lvl, cur.height()-1)].Load()
					if !pred.next[lvl].CompareAndSwap(curLink, &link{succ: next.succ}) {
						continue retry
					}
					curLink = pred.next[lvl].Load()
					continue
				}
				if cur.sortKey < sk {
					pred = cur
					curLink = cur.next[minInt(lvl, cur.height()-1)].Load()
					continue
				}
				break
			}
			preds[lvl] = pred
			succs[lvl] = curLink.succ
		}
		return
	}
}

func (n *node) height() int { return len(n.next) }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// claim logically deletes n by marking its bottom link; it returns true if
// this call won the node.
func claim(n *node) bool {
	for {
		l := n.next[0].Load()
		if l.marked {
			return false
		}
		if n.next[0].CompareAndSwap(l, &link{succ: l.succ, marked: true}) {
			return true
		}
	}
}

// ExtractMax removes and returns a high-priority key. With p == 1 it is a
// strict DeleteMax. With p > 1 it sprays: ok=false can mean either that the
// list is empty or that the spray met only claimed nodes — the caller must
// retry, which is precisely the SprayList behaviour the ZMSQ paper
// contrasts with its own guaranteed extraction (§4.5.2).
func (s *SprayList) ExtractMax() (uint64, bool) {
	if s.threads == 1 {
		return s.deleteFirst()
	}
	r := s.rngs.Get().(*xrand.Rand)
	key, ok := s.sprayDelete(r)
	s.rngs.Put(r)
	return key, ok
}

// deleteFirst claims the first live node (strict extraction), physically
// unlinking the logically-deleted prefix as it walks. It doubles as the
// SprayList's "cleaner": the original design dedicates roughly 1/p of
// extractions to cleaning so the deleted prefix cannot grow without bound.
func (s *SprayList) deleteFirst() (uint64, bool) {
	for {
		l := s.head.next[0].Load()
		cur := l.succ
		if cur == nil {
			return 0, false
		}
		if cur.deleted() {
			next := cur.next[0].Load()
			s.head.next[0].CompareAndSwap(l, &link{succ: next.succ})
			continue
		}
		if claim(cur) {
			return ^cur.sortKey, true
		}
	}
}

// sprayParams derives the walk geometry from the thread count p: start
// height ~ log p + 1 and a per-level jump bound sized so the landing
// distribution covers O(p·log³p) front elements, the published scaling.
func (s *SprayList) sprayParams() (startLevel, jumpBound int) {
	p := s.threads
	logp := bits.Len(uint(p)) // ⌊log2 p⌋ + 1
	startLevel = logp
	if startLevel >= maxHeight {
		startLevel = maxHeight - 1
	}
	target := float64(p) * float64(logp) * float64(logp) * float64(logp)
	levels := float64(startLevel + 1)
	jumpBound = int(math.Pow(target, 1/levels)) + 1
	return startLevel, jumpBound
}

// sprayDelete performs one spray walk and tries to claim the landing node
// or one of a few successors.
func (s *SprayList) sprayDelete(r *xrand.Rand) (uint64, bool) {
	// Cleaner lottery: with probability 1/p this extraction walks from the
	// head, unlinking the deleted prefix and claiming the first live node.
	// Without it, drain-heavy phases accumulate deleted nodes at the front
	// until sprays can no longer find live ones.
	if r.Uint64n(uint64(s.threads)) == 0 {
		return s.deleteFirst()
	}
	startLevel, jumpBound := s.sprayParams()
	cur := s.head
	for lvl := startLevel; lvl >= 0; lvl-- {
		jumps := int(r.Uint64n(uint64(jumpBound + 1)))
		for j := 0; j < jumps; j++ {
			l := cur.next[minInt(lvl, cur.height()-1)].Load()
			if l.succ == nil {
				break
			}
			cur = l.succ
		}
	}
	// Try to claim the landing node or a handful of successors.
	const attempts = 4
	n := cur
	for i := 0; i < attempts && n != nil; i++ {
		if n != s.head && claim(n) {
			s.cleanupFront()
			return ^n.sortKey, true
		}
		n = n.next[0].Load().succ
	}
	s.cleanupFront()
	return 0, false
}

// cleanupFront opportunistically unlinks a short run of logically-deleted
// nodes at the front of the bottom level, standing in for the SprayList's
// dedicated cleaner lottery. Searches also help, so this stays amortized
// constant.
func (s *SprayList) cleanupFront() {
	for i := 0; i < 4; i++ {
		l := s.head.next[0].Load()
		cur := l.succ
		if cur == nil || !cur.deleted() {
			return
		}
		next := cur.next[0].Load()
		s.head.next[0].CompareAndSwap(l, &link{succ: next.succ})
	}
}
