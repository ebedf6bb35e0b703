package core

import "slices"

// element is one queue entry: a priority key (larger = higher priority) and
// an arbitrary payload.
type element[V any] struct {
	key uint64
	val V
}

// nodeSet is the per-TNode element container. Two implementations exist,
// matching the paper's evaluation: a sorted doubly-linked list (the mound's
// representation plus a back link, the default) and an unsorted
// fixed-capacity array (the "(array)" curves). All methods are called with
// the owning TNode's lock held; sets need no internal synchronization.
//
// Callers maintain the TNode's cached max/min/count; set methods report
// enough (maxKey/minKey/length) to recompute them after a mutation.
//
// Methods that move elements out of the set (takeTop, splitLower,
// ascending) append to a caller-supplied buffer instead of allocating:
// the hot paths thread per-operation scratch slices (opCtx) through them,
// so steady-state operations touch no new heap memory.
type nodeSet[V any] interface {
	// insertMax adds e, whose key must be >= maxKey() (or the set empty).
	insertMax(a *alloc[V], e element[V])
	// insertNonMax adds e at a non-head position; e.key must be <= maxKey().
	insertNonMax(a *alloc[V], e element[V])
	// addRun adds every element of run, leaving the set exactly as
	// insertMax (for a key >= maxKey(), or into an empty set) or
	// insertNonMax (otherwise) applied to each in turn would. run must be
	// in the order splitLower produces.
	addRun(a *alloc[V], run []element[V])
	// removeMax removes and returns the largest element. The set must be
	// nonempty.
	removeMax(a *alloc[V]) element[V]
	// removeMin removes and returns the smallest element. The set must be
	// nonempty.
	removeMin(a *alloc[V]) element[V]
	// takeTop removes the n largest elements (n <= length()) and appends
	// them to dst in ascending key order.
	takeTop(a *alloc[V], n int, dst []element[V]) []element[V]
	// splitLower removes the floor(length/2) smallest elements and appends
	// them to dst: in descending key order from a list (whose addRun relies
	// on it), ascending from an array.
	splitLower(a *alloc[V], dst []element[V]) []element[V]
	// swapMin removes the minimum and inserts e, returning the removed
	// minimum and the new minimum key. Requirements: length >= 2,
	// minKey() < e.key <= maxKey(). This is the §3.2 parent-min quality
	// swap, which runs on most regular inserts: the list unlinks its tail
	// and walks only from the nearer end to e's position, the array makes
	// one scan.
	swapMin(a *alloc[V], e element[V]) (demoted element[V], newMin uint64)
	// maxKey/minKey report the extreme keys; undefined when empty. O(1) on
	// a list, a scan of an array (callers cache both in the TNode).
	maxKey() uint64
	minKey() uint64
	length() int
	// ascending appends all elements in ascending key order, without
	// removing them. Used by validation and draining.
	ascending(dst []element[V]) []element[V]
}

// lnode is a node of the sorted list representation, linked both ways so
// that the minimum leaves in O(1) and a position can be approached from
// whichever end is nearer. For V = []byte the node is 48 bytes with or
// without prev (40 rounds up to the 48-byte size class); for V = struct{} it
// grows from the 16-byte class to the 24-byte one. Both list modes recycle
// lnodes through per-context free stacks and a shared freelist; in
// memory-safe mode a node reaches them only through a hazard scan, in leaky
// mode at once (the GC backs any stale diagnostic reader). Either way a
// recycled node carries no links (alloc.put clears both).
type lnode[V any] struct {
	e    element[V]
	next *lnode[V]
	prev *lnode[V]
}

// listSet is a doubly-linked list sorted descending by key: the head is the
// maximum, as in the original mound, and the tail the minimum, so both
// extremes are read and removed in O(1). Among equal keys the order is
// fixed by the insert rule (seek) and is part of the queue's observable
// behaviour: it decides which of two equal keys is extracted first.
type listSet[V any] struct {
	head *lnode[V]
	tail *lnode[V]
	size int
}

func (s *listSet[V]) length() int    { return s.size }
func (s *listSet[V]) maxKey() uint64 { return s.head.e.key }
func (s *listSet[V]) minKey() uint64 { return s.tail.e.key }

func (s *listSet[V]) insertMax(a *alloc[V], e element[V]) {
	n := a.get()
	n.e = e
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	} else {
		s.tail = n
	}
	s.head = n
	s.size++
}

// seek returns the node a non-max element with this key goes behind: the
// last node that is the head or holds a strictly greater key. The new
// element so lands behind every greater key and in front of every equal
// one (the head excepted). The set must be nonempty. The search starts
// from the end whose key is nearer, which on uniform keys is the end with
// fewer nodes in between; both directions stop at the same node.
func (s *listSet[V]) seek(key uint64) *lnode[V] {
	lo, hi := s.tail.e.key, s.head.e.key
	if key < lo || key-lo < hi-key {
		p := s.tail
		for p != s.head && p.e.key <= key {
			p = p.prev
		}
		return p
	}
	return s.seekFrom(s.head, key)
}

// seekFrom is seek walking forward from p, which must be the head or hold a
// key strictly greater than key.
func (s *listSet[V]) seekFrom(p *lnode[V], key uint64) *lnode[V] {
	for p.next != nil && p.next.e.key > key {
		p = p.next
	}
	return p
}

func (s *listSet[V]) insertAfter(a *alloc[V], p *lnode[V], e element[V]) {
	n := a.get()
	n.e = e
	n.prev, n.next = p, p.next
	if p.next != nil {
		p.next.prev = n
	} else {
		s.tail = n
	}
	p.next = n
	s.size++
}

func (s *listSet[V]) insertNonMax(a *alloc[V], e element[V]) {
	if s.head == nil || e.key > s.head.e.key {
		// Degenerate call on an empty set; preserve sortedness anyway.
		s.insertMax(a, e)
		return
	}
	s.insertAfter(a, s.seek(e.key), e)
}

func (s *listSet[V]) addRun(a *alloc[V], run []element[V]) {
	// One forward-only cursor serves the whole run: each element is no
	// greater than the one before, so it goes behind p (the node its
	// predecessor went behind) or further down, never back towards the head.
	var p *lnode[V]
	for _, e := range run {
		if s.head == nil || e.key >= s.head.e.key {
			s.insertMax(a, e)
			p = s.head
			continue
		}
		if p == nil {
			p = s.seek(e.key)
		} else {
			p = s.seekFrom(p, e.key)
		}
		s.insertAfter(a, p, e)
	}
}

func (s *listSet[V]) removeMax(a *alloc[V]) element[V] {
	n := s.head
	s.head = n.next
	if s.head != nil {
		s.head.prev = nil
	} else {
		s.tail = nil
	}
	s.size--
	e := n.e
	a.put(n)
	return e
}

func (s *listSet[V]) removeMin(a *alloc[V]) element[V] {
	n := s.tail
	s.tail = n.prev
	if s.tail != nil {
		s.tail.next = nil
	} else {
		s.head = nil
	}
	s.size--
	e := n.e
	a.put(n)
	return e
}

func (s *listSet[V]) takeTop(a *alloc[V], n int, dst []element[V]) []element[V] {
	// The list is sorted descending, so the n largest are the first n.
	// Append them to dst in ascending order: reserve space, fill backwards.
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	for i := n - 1; i >= 0; i-- {
		dst[base+i] = s.removeMax(a)
	}
	return dst
}

func (s *listSet[V]) splitLower(a *alloc[V], dst []element[V]) []element[V] {
	take := s.size / 2
	if take == 0 {
		return dst
	}
	// Unlink the run from the tail upwards, filling dst backwards so that it
	// reads in list order: one pass over the nodes that leave, none over
	// those that stay. take < size, so the walk ends on a kept node.
	base := len(dst)
	dst = slices.Grow(dst, take)[:base+take]
	n := s.tail
	for i := take - 1; i >= 0; i-- {
		dst[base+i] = n.e
		up := n.prev
		a.put(n)
		n = up
	}
	n.next = nil
	s.tail = n
	s.size -= take
	return dst
}

func (s *listSet[V]) swapMin(a *alloc[V], e element[V]) (element[V], uint64) {
	// The contract (minKey < e.key <= maxKey, length >= 2) puts e strictly
	// in front of the old tail, so the node seek finds is never the one
	// unlinked below.
	s.insertAfter(a, s.seek(e.key), e)
	demoted := s.removeMin(a)
	return demoted, s.tail.e.key
}

func (s *listSet[V]) ascending(dst []element[V]) []element[V] {
	base := len(dst)
	for n := s.head; n != nil; n = n.next {
		dst = append(dst, n.e)
	}
	// Reverse the appended (descending) run.
	for i, j := base, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// sortElemsAsc sorts elems ascending by key: median-of-three quicksort with
// an insertion-sort cutoff, recursing into one partition and looping on the
// other. sort.Slice is deliberately avoided — it boxes the slice and
// closure, costing heap allocations on every pool refill in array mode.
func sortElemsAsc[V any](e []element[V]) {
	for len(e) > 16 {
		m, hi := len(e)/2, len(e)-1
		if e[0].key > e[m].key {
			e[0], e[m] = e[m], e[0]
		}
		if e[0].key > e[hi].key {
			e[0], e[hi] = e[hi], e[0]
		}
		if e[m].key > e[hi].key {
			e[m], e[hi] = e[hi], e[m]
		}
		pivot := e[m].key
		i, j := 0, hi
		for i <= j {
			for e[i].key < pivot {
				i++
			}
			for e[j].key > pivot {
				j--
			}
			if i <= j {
				e[i], e[j] = e[j], e[i]
				i++
				j--
			}
		}
		if j < len(e)-i {
			sortElemsAsc(e[:j+1])
			e = e[i:]
		} else {
			sortElemsAsc(e[i:])
			e = e[:j+1]
		}
	}
	for i := 1; i < len(e); i++ {
		for j := i; j > 0 && e[j].key < e[j-1].key; j-- {
			e[j], e[j-1] = e[j-1], e[j]
		}
	}
}

// arraySet is an unsorted slice with small fixed capacity (2×targetLen plus
// slack). Inserts are O(1); extremum queries and removals are O(n) scans,
// which at n <= 2×targetLen is a handful of cache lines — the locality the
// paper credits for the "(array)" variant's low single-thread latency.
type arraySet[V any] struct {
	elems []element[V]
}

func newArraySet[V any](capacity int) *arraySet[V] {
	return &arraySet[V]{elems: make([]element[V], 0, capacity)}
}

func (s *arraySet[V]) length() int { return len(s.elems) }

func (s *arraySet[V]) maxKey() uint64 {
	best := s.elems[0].key
	for _, e := range s.elems[1:] {
		if e.key > best {
			best = e.key
		}
	}
	return best
}

func (s *arraySet[V]) minKey() uint64 {
	best := s.elems[0].key
	for _, e := range s.elems[1:] {
		if e.key < best {
			best = e.key
		}
	}
	return best
}

func (s *arraySet[V]) insertMax(a *alloc[V], e element[V])    { s.elems = append(s.elems, e) }
func (s *arraySet[V]) insertNonMax(a *alloc[V], e element[V]) { s.elems = append(s.elems, e) }
func (s *arraySet[V]) addRun(a *alloc[V], run []element[V])   { s.elems = append(s.elems, run...) }

func (s *arraySet[V]) removeAt(i int) element[V] {
	e := s.elems[i]
	last := len(s.elems) - 1
	s.elems[i] = s.elems[last]
	s.elems[last] = element[V]{} // release payload for GC
	s.elems = s.elems[:last]
	return e
}

func (s *arraySet[V]) removeMax(a *alloc[V]) element[V] {
	best := 0
	for i, e := range s.elems {
		if e.key > s.elems[best].key {
			best = i
		}
	}
	return s.removeAt(best)
}

func (s *arraySet[V]) removeMin(a *alloc[V]) element[V] {
	best := 0
	for i, e := range s.elems {
		if e.key < s.elems[best].key {
			best = i
		}
	}
	return s.removeAt(best)
}

func (s *arraySet[V]) sortAscending() { sortElemsAsc(s.elems) }

func (s *arraySet[V]) takeTop(a *alloc[V], n int, dst []element[V]) []element[V] {
	s.sortAscending()
	cut := len(s.elems) - n
	dst = append(dst, s.elems[cut:]...)
	for i := cut; i < len(s.elems); i++ {
		s.elems[i] = element[V]{}
	}
	s.elems = s.elems[:cut]
	return dst
}

func (s *arraySet[V]) splitLower(a *alloc[V], dst []element[V]) []element[V] {
	take := len(s.elems) / 2
	if take == 0 {
		return dst
	}
	s.sortAscending()
	dst = append(dst, s.elems[:take]...)
	keep := copy(s.elems, s.elems[take:])
	for i := keep; i < len(s.elems); i++ {
		s.elems[i] = element[V]{}
	}
	s.elems = s.elems[:keep]
	return dst
}

func (s *arraySet[V]) swapMin(a *alloc[V], e element[V]) (element[V], uint64) {
	// One scan tracking the minimum and second-minimum; the minimum's slot
	// is overwritten with e in place.
	minI := 0
	second := uint64(1<<64 - 1)
	for i := 1; i < len(s.elems); i++ {
		k := s.elems[i].key
		switch {
		case k < s.elems[minI].key:
			second = s.elems[minI].key
			minI = i
		case k < second:
			second = k
		}
	}
	demoted := s.elems[minI]
	s.elems[minI] = e
	newMin := second
	if e.key < newMin {
		newMin = e.key
	}
	return demoted, newMin
}

func (s *arraySet[V]) ascending(dst []element[V]) []element[V] {
	base := len(dst)
	dst = append(dst, s.elems...)
	sortElemsAsc(dst[base:])
	return dst
}
