package core

import "slices"

// element is one queue entry: a priority key (larger = higher priority) and
// an arbitrary payload. The payload comes first so that a zero-size V adds
// no padding: element[struct{}] is 8 bytes, not 16, which halves a list
// block of them.
type element[V any] struct {
	val V
	key uint64
}

// nodeSet is the per-TNode element container. Two implementations exist,
// matching the paper's evaluation: a sorted doubly-linked list (the mound's
// representation plus a back link, unrolled into blocks of blockLen
// elements; the default) and an unsorted
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
	// swap, which runs on most regular inserts: the list walks blocks only
	// from the nearer end to e's position and drops its last element, the
	// array makes one scan.
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

// blockLen is how many elements one lnode holds. 8, 16 and 32 were
// measured (EXPERIMENTS.md, "Unrolled list"): 8 was slowest everywhere; 32
// was faster than 16 on every probe, by up to a fifth, but holds a []byte
// element in 70 bytes to 16's 61 at the fill splits leave, against 48 for
// a node per element.
const blockLen = 16

// lnode is one block of the unrolled list: up to blockLen elements in
// descending key order in e[:n], every slot from n up zero, linked both ways
// so that the minimum leaves in O(1) and a position can be approached from
// whichever end is nearer. Both list modes recycle lnodes through
// per-context free stacks and a shared freelist; in memory-safe mode a block
// reaches them only through a hazard scan, in leaky mode at once (the GC
// backs any stale diagnostic reader). Either way a recycled block is empty
// and carries no links (alloc.put clears its slots and both links).
type lnode[V any] struct {
	n    int
	next *lnode[V]
	prev *lnode[V]
	e    [blockLen]element[V]
}

// listSet is an unrolled doubly-linked list sorted descending by key: read
// block by block from the head, it is the sequence a list of one element per
// node would hold. The head block starts with the maximum, as in the
// original mound, and the tail block ends with the minimum, so both extremes
// are read and removed in O(1). No linked block is empty. Among equal keys
// the order is fixed by the insert rule (seek) and is part of the queue's
// observable behaviour: it decides which of two equal keys is extracted
// first.
type listSet[V any] struct {
	head *lnode[V]
	tail *lnode[V]
	size int
}

func (s *listSet[V]) length() int    { return s.size }
func (s *listSet[V]) maxKey() uint64 { return s.head.e[0].key }
func (s *listSet[V]) minKey() uint64 { return s.tail.e[s.tail.n-1].key }

func (s *listSet[V]) insertMax(a *alloc[V], e element[V]) {
	if s.head == nil {
		b := a.get()
		s.head, s.tail = b, b
	}
	s.insertAt(a, s.head, 0, e)
}

// seek returns where a non-max element with this key goes: behind the head
// and every strictly greater key, in front of every equal one. The block is
// the last one whose first key is strictly greater, or the head; the index
// is the first one from 1 in it whose key is not greater, or its count. The
// set must be nonempty. The block walk starts from the end whose key is
// nearer, which on uniform keys is the end with fewer blocks in between;
// both directions stop at the same block.
func (s *listSet[V]) seek(key uint64) (*lnode[V], int) {
	lo, hi := s.minKey(), s.maxKey()
	if key < lo || key-lo < hi-key {
		b := s.tail
		for b != s.head && b.e[0].key <= key {
			b = b.prev
		}
		return b, b.scan(1, key)
	}
	return s.seekFrom(s.head, 1, key)
}

// seekFrom is seek walking forward from index j >= 1 of block b: every key
// in front of it is greater than this one, or it is index 1 of the head.
func (s *listSet[V]) seekFrom(b *lnode[V], j int, key uint64) (*lnode[V], int) {
	for b.next != nil && b.next.e[0].key > key {
		b, j = b.next, 1
	}
	return b, b.scan(j, key)
}

// scan returns the first index from j whose key is not greater than key,
// or the block's count.
func (b *lnode[V]) scan(j int, key uint64) int {
	for j < b.n && b.e[j].key > key {
		j++
	}
	return j
}

// insertAt puts e at index j of block b, first splitting a full block into
// halves, and returns the block and index e landed at.
func (s *listSet[V]) insertAt(a *alloc[V], b *lnode[V], j int, e element[V]) (*lnode[V], int) {
	if b.n == blockLen {
		const half = blockLen / 2
		nb := a.get()
		copy(nb.e[:], b.e[half:])
		clear(b.e[half:])
		nb.n, b.n = half, half
		nb.prev, nb.next = b, b.next
		if b.next != nil {
			b.next.prev = nb
		} else {
			s.tail = nb
		}
		b.next = nb
		if j > half {
			b, j = nb, j-half
		}
	}
	copy(b.e[j+1:b.n+1], b.e[j:b.n])
	b.e[j] = e
	b.n++
	s.size++
	return b, j
}

// removeAt removes the element at index j of block b, unlinking and
// freeing the block if that empties it.
func (s *listSet[V]) removeAt(a *alloc[V], b *lnode[V], j int) element[V] {
	e := b.e[j]
	b.n--
	copy(b.e[j:b.n], b.e[j+1:b.n+1])
	b.e[b.n] = element[V]{}
	s.size--
	if b.n == 0 {
		s.unlink(a, b)
	}
	return e
}

// unlink takes block b out of the list and frees it.
func (s *listSet[V]) unlink(a *alloc[V], b *lnode[V]) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		s.tail = b.prev
	}
	a.put(b)
}

func (s *listSet[V]) insertNonMax(a *alloc[V], e element[V]) {
	if s.head == nil || e.key > s.maxKey() {
		// Degenerate call on an empty set; preserve sortedness anyway.
		s.insertMax(a, e)
		return
	}
	b, j := s.seek(e.key)
	s.insertAt(a, b, j, e)
}

func (s *listSet[V]) addRun(a *alloc[V], run []element[V]) {
	// One forward-only cursor serves the whole run: each element is no
	// greater than the one before, so it goes where its predecessor went
	// or further down, never back towards the head.
	var b *lnode[V]
	var j int
	for _, e := range run {
		switch {
		case s.head == nil || e.key >= s.maxKey():
			s.insertMax(a, e)
			b, j = s.head, 1
			continue
		case b == nil:
			b, j = s.seek(e.key)
		default:
			b, j = s.seekFrom(b, j, e.key)
		}
		b, j = s.insertAt(a, b, j, e)
	}
}

func (s *listSet[V]) removeMax(a *alloc[V]) element[V] {
	return s.removeAt(a, s.head, 0)
}

func (s *listSet[V]) removeMin(a *alloc[V]) element[V] {
	return s.removeAt(a, s.tail, s.tail.n-1)
}

func (s *listSet[V]) takeTop(a *alloc[V], n int, dst []element[V]) []element[V] {
	// The list is sorted descending, so the n largest are the first n.
	// Append them to dst in ascending order: reserve space, fill backwards,
	// a head block at a time.
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	s.size -= n
	for n > 0 {
		b := s.head
		t := min(n, b.n)
		for j := 0; j < t; j++ {
			dst[base+n-1-j] = b.e[j]
		}
		n -= t
		if t == b.n {
			s.unlink(a, b)
			continue
		}
		copy(b.e[:], b.e[t:b.n])
		clear(b.e[b.n-t : b.n])
		b.n -= t
	}
	return dst
}

func (s *listSet[V]) splitLower(a *alloc[V], dst []element[V]) []element[V] {
	take := s.size / 2
	if take == 0 {
		return dst
	}
	// Unlink the run from the tail upwards, filling dst backwards so that it
	// reads in list order: whole tail blocks are copied and freed, the last
	// one cut. take < size, so the walk ends on a kept block.
	base := len(dst)
	dst = slices.Grow(dst, take)[:base+take]
	s.size -= take
	for rem := take; rem > 0; {
		b := s.tail
		if rem < b.n {
			copy(dst[base:], b.e[b.n-rem:b.n])
			clear(b.e[b.n-rem : b.n])
			b.n -= rem
			break
		}
		rem -= b.n
		copy(dst[base+rem:], b.e[:b.n])
		s.unlink(a, b)
	}
	return dst
}

func (s *listSet[V]) swapMin(a *alloc[V], e element[V]) (element[V], uint64) {
	// The contract (minKey < e.key <= maxKey, length >= 2) puts e strictly
	// in front of the old minimum, so the element removed below is never e.
	s.insertNonMax(a, e)
	demoted := s.removeMin(a)
	return demoted, s.minKey()
}

func (s *listSet[V]) ascending(dst []element[V]) []element[V] {
	for b := s.tail; b != nil; b = b.prev {
		for j := b.n - 1; j >= 0; j-- {
			dst = append(dst, b.e[j])
		}
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
