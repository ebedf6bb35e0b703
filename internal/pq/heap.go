package pq

import "sync"

// SeqHeap is a classic array-backed binary max-heap. It is NOT safe for
// concurrent use; it exists as the exact-answer oracle for accuracy
// experiments and correctness tests, and as the building block of
// GlobalHeap and the MultiQueue.
type SeqHeap struct {
	a []uint64
}

// NewSeqHeap returns an empty heap with capacity hint cap.
func NewSeqHeap(cap int) *SeqHeap {
	return &SeqHeap{a: make([]uint64, 0, max(cap, 0))}
}

// Insert adds key.
func (h *SeqHeap) Insert(key uint64) {
	h.a = append(h.a, key)
	h.siftUp(len(h.a) - 1)
}

// Max returns the maximum without removing it.
func (h *SeqHeap) Max() (uint64, bool) {
	if len(h.a) == 0 {
		return 0, false
	}
	return h.a[0], true
}

// ExtractMax removes and returns the maximum key.
func (h *SeqHeap) ExtractMax() (uint64, bool) {
	if len(h.a) == 0 {
		return 0, false
	}
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top, true
}

func (h *SeqHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent] >= h.a[i] {
			return
		}
		h.a[parent], h.a[i] = h.a[i], h.a[parent]
		i = parent
	}
}

func (h *SeqHeap) siftDown(i int) {
	n := len(h.a)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.a[l] > h.a[largest] {
			largest = l
		}
		if r < n && h.a[r] > h.a[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h.a[i], h.a[largest] = h.a[largest], h.a[i]
		i = largest
	}
}

// valid reports whether the heap property holds; used by property tests.
func (h *SeqHeap) valid() bool {
	for i := 1; i < len(h.a); i++ {
		if h.a[(i-1)/2] < h.a[i] {
			return false
		}
	}
	return true
}

// GlobalHeap is a strict concurrent priority queue: a SeqHeap behind a
// single mutex. It is the "strict sequential specification" baseline whose
// extraction bottleneck motivates relaxed designs (§1).
type GlobalHeap struct {
	mu sync.Mutex
	h  SeqHeap
}

// NewGlobalHeap returns an empty queue with capacity hint cap.
func NewGlobalHeap(cap int) *GlobalHeap {
	return &GlobalHeap{h: SeqHeap{a: make([]uint64, 0, max(cap, 0))}}
}

// Insert adds key.
func (q *GlobalHeap) Insert(key uint64) {
	q.mu.Lock()
	q.h.Insert(key)
	q.mu.Unlock()
}

// ExtractMax removes and returns the maximum key.
func (q *GlobalHeap) ExtractMax() (uint64, bool) {
	q.mu.Lock()
	v, ok := q.h.ExtractMax()
	q.mu.Unlock()
	return v, ok
}

// Name implements Named.
func (q *GlobalHeap) Name() string { return "globalheap" }

var _ Queue = (*GlobalHeap)(nil)
var _ Named = (*GlobalHeap)(nil)
