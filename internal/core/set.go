package core

// element is one queue entry: a priority key (larger = higher priority) and
// an arbitrary payload. The payload comes first so that a zero-size V adds
// no padding: element[struct{}] is 8 bytes, not 16, which halves a run of
// them.
type element[V any] struct {
	val V
	key uint64
}

// nodeSet is a TNode's element container, held by value in the node: one
// slice, e. It is one of the two representations of the paper's
// evaluation, and the per-operation alloc says which (alloc.arr), so the
// node spends no byte on a mode.
//
// By default e is a run: the set sorted ascending by key, the mound's
// descending list read from its tail, in a buffer whose capacity is one of
// the domain's classes (see AllocDomain). The minimum is e[0] and the
// maximum e[len-1], so both extremes are one load, and so are removing the
// maximum and appending a new one. A position is found by binary search and
// filled by one shift; a split moves the lower half out and the upper half
// down. Every slot from len(e) up is zero, so a buffer pins no payload, and
// an empty list set holds no buffer. Among equal keys the order is fixed by
// the insert rule (seek) and is part of the queue's observable behaviour:
// it decides which of two equal keys is extracted first.
//
// With alloc.arr set, e is instead Fig. 5's unsorted array (the "(array)"
// curves), made at its fixed capacity when the level is and never handed
// to the allocator. Every method the queue calls begins with that one
// branch.
//
// The set does not know its size beyond len(e): the owning TNode's count
// mirrors it for optimistic readers, and callers maintain the TNode's
// cached max and count. All methods are called with the owning TNode's
// lock held; sets need no internal synchronization.
//
// Methods that move elements out of the set (takeTop, splitLower,
// ascending) append to a caller-supplied buffer instead of allocating:
// the hot paths thread per-operation scratch slices (opCtx) through them,
// so steady-state operations touch no new heap memory.
type nodeSet[V any] struct {
	e []element[V]
}

// maxKey and minKey report the extreme keys; undefined when empty. One
// load from a run, a scan of an array.
func (s *nodeSet[V]) maxKey(a *alloc[V]) uint64 {
	if a.arr {
		return arrayMax(s.e)
	}
	return s.e[len(s.e)-1].key
}

func (s *nodeSet[V]) minKey(a *alloc[V]) uint64 {
	if a.arr {
		return arrayMin(s.e)
	}
	return s.e[0].key
}

// insertMax adds e, whose key must be >= the maximum (or the set empty):
// an append.
func (s *nodeSet[V]) insertMax(a *alloc[V], e element[V]) {
	if !a.arr && len(s.e) == cap(s.e) {
		s.move(a, len(s.e)+1)
	}
	s.e = append(s.e, e)
}

// insertNonMax adds e behind the maximum; e.key must be <= the maximum.
func (s *nodeSet[V]) insertNonMax(a *alloc[V], e element[V]) {
	if a.arr {
		s.e = append(s.e, e)
		return
	}
	n := len(s.e)
	if n == 0 || e.key > s.e[n-1].key {
		// Degenerate call on an empty set; preserve sortedness anyway.
		s.insertMax(a, e)
		return
	}
	i := s.seek(e.key)
	if n == cap(s.e) {
		s.move(a, n+1)
	}
	s.e = s.e[:n+1]
	copy(s.e[i+1:], s.e[i:n])
	s.e[i] = e
}

// seek returns where a non-max element with this key goes: in front of the
// maximum and every strictly greater key, behind every equal one — in the
// mound's descending list, behind the head and every greater key and ahead
// of every equal one. It is the first index whose key is greater, found by
// binary search over all but the last, or len-1. The run must be nonempty.
func (s *nodeSet[V]) seek(key uint64) int {
	lo, hi := 0, len(s.e)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.e[m].key > key {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// move puts the run into a buffer of the class that holds need elements
// and hands the old buffer, if any, back to the allocator.
func (s *nodeSet[V]) move(a *alloc[V], need int) {
	b := append(a.get(need), s.e...)
	if cap(s.e) > 0 {
		a.put(s.e)
	}
	s.e = b
}

// fit runs after every removal from a run: an empty run gives its buffer
// back, and one whose buffer is larger than the class AllocDomain.fitCap
// names for its size moves down into that class, so buffers follow sets
// down as the root drains them and grow back with them a class at a time.
func (s *nodeSet[V]) fit(a *alloc[V]) {
	n := len(s.e)
	if n == 0 {
		if cap(s.e) > 0 {
			a.put(s.e)
			s.e = nil
		}
		return
	}
	if c := a.ad.fitCap(n); c < cap(s.e) {
		s.move(a, c)
	}
}

// addRun adds every element of run, leaving the set exactly as insertMax
// (for a key >= the maximum, or into an empty set) or insertNonMax
// (otherwise) applied to each in turn would. run must be in the order
// splitLower produces: descending. Each of those inserts puts its element
// ahead of every equal key in the descending list, so a group of equal
// keys ends with the run's ones in reverse run order ahead of the set's
// own; in the ascending run that is the set's own first, then the run's in
// run order. One merge from the top builds it in place.
func (s *nodeSet[V]) addRun(a *alloc[V], run []element[V]) {
	if a.arr {
		s.e = append(s.e, run...)
		return
	}
	n, k := len(s.e), len(run)
	if n+k > cap(s.e) {
		s.move(a, n+k)
	}
	e := s.e[:n+k]
	i, w := n-1, n+k-1
	for j := 0; j < k; {
		key := run[j].key
		g := j + 1
		for g < k && run[g].key == key {
			g++
		}
		for ; i >= 0 && e[i].key > key; i, w = i-1, w-1 {
			e[w] = e[i]
		}
		for x := g - 1; x >= j; x, w = x-1, w-1 {
			e[w] = run[x]
		}
		j = g
	}
	s.e = e
}

// removeMax removes and returns the largest element. The set must be
// nonempty.
func (s *nodeSet[V]) removeMax(a *alloc[V]) element[V] {
	if a.arr {
		return s.arrayRemoveAt(arrayMaxAt(s.e))
	}
	n := len(s.e) - 1
	e := s.e[n]
	s.e[n] = element[V]{}
	s.e = s.e[:n]
	s.fit(a)
	return e
}

// takeTop removes the n largest elements (n <= the set's size) and appends
// them to dst in ascending key order.
func (s *nodeSet[V]) takeTop(a *alloc[V], n int, dst []element[V]) []element[V] {
	if a.arr {
		sortElemsAsc(s.e)
	}
	cut := len(s.e) - n
	dst = append(dst, s.e[cut:]...)
	clear(s.e[cut:])
	s.e = s.e[:cut]
	if !a.arr {
		s.fit(a)
	}
	return dst
}

// splitLower removes the floor(size/2) smallest elements, where size is
// the set's size (the TNode's count), and appends them to dst: in
// descending key order from a run (the mound's list order, which
// distribute and addRun rely on), ascending from an array.
func (s *nodeSet[V]) splitLower(a *alloc[V], size int, dst []element[V]) []element[V] {
	take := size / 2
	if take == 0 {
		return dst
	}
	if a.arr {
		sortElemsAsc(s.e)
		dst = append(dst, s.e[:take]...)
	} else {
		for i := take - 1; i >= 0; i-- {
			dst = append(dst, s.e[i])
		}
	}
	keep := copy(s.e, s.e[take:])
	clear(s.e[keep:])
	s.e = s.e[:keep]
	if !a.arr {
		s.fit(a)
	}
	return dst
}

// swapMin is the §3.2 parent-min quality swap, which runs on most regular
// inserts: if the minimum is below e.key it removes the minimum, inserts e
// and returns the removed element with ok true; otherwise it leaves the set
// unchanged and returns ok false. The set must hold at least two elements
// and e.key must be <= the maximum. A run reads its minimum in one load and
// makes room for e by shifting the elements below e's position down over
// it; the array makes one scan.
func (s *nodeSet[V]) swapMin(a *alloc[V], e element[V]) (demoted element[V], ok bool) {
	if a.arr {
		return s.arraySwapMin(e)
	}
	if s.e[0].key >= e.key {
		return demoted, false
	}
	// e.key > e[0].key, so seek lands at 1 or above.
	demoted = s.e[0]
	i := s.seek(e.key)
	copy(s.e[:i-1], s.e[1:i])
	s.e[i-1] = e
	return demoted, true
}

// ascending appends all elements in ascending key order, without removing
// them. Used by validation and tests.
func (s *nodeSet[V]) ascending(a *alloc[V], dst []element[V]) []element[V] {
	base := len(dst)
	dst = append(dst, s.e...)
	if a.arr {
		sortElemsAsc(dst[base:])
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

// The array set (alloc.arr) is an unsorted slice with small fixed capacity
// (2×targetLen plus slack). Inserts are O(1) appends (nodeSet does them);
// extremum queries and removals are O(n) scans, which at n <= 2×targetLen
// is a handful of cache lines — the locality the paper credits for the
// "(array)" variant's low single-thread latency.

func arrayMax[V any](e []element[V]) uint64 { return e[arrayMaxAt(e)].key }

func arrayMaxAt[V any](e []element[V]) int {
	best := 0
	for i := range e {
		if e[i].key > e[best].key {
			best = i
		}
	}
	return best
}

func arrayMin[V any](e []element[V]) uint64 {
	best := e[0].key
	for _, x := range e[1:] {
		best = min(best, x.key)
	}
	return best
}

func (s *nodeSet[V]) arrayRemoveAt(i int) element[V] {
	e := s.e[i]
	last := len(s.e) - 1
	s.e[i] = s.e[last]
	s.e[last] = element[V]{} // release payload for GC
	s.e = s.e[:last]
	return e
}

// arraySwapMin finds the first minimum in one scan and, if it is below
// e.key, overwrites its slot with e.
func (s *nodeSet[V]) arraySwapMin(e element[V]) (element[V], bool) {
	minI := 0
	for i := 1; i < len(s.e); i++ {
		if s.e[i].key < s.e[minI].key {
			minI = i
		}
	}
	demoted := s.e[minI]
	if demoted.key >= e.key {
		return element[V]{}, false
	}
	s.e[minI] = e
	return demoted, true
}
