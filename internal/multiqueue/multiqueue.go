// Package multiqueue implements the MultiQueue of Rihani, Sanders and
// Dementiev (2015), discussed in §2.1 of the ZMSQ paper. It keeps c·p
// sequential heaps, each behind its own lock. Insert pushes into a random
// heap; ExtractMax peeks two random heaps and pops the better one — the
// power-of-two-choices rule that keeps the per-extraction rank error
// O(p) in expectation.
//
// Like the k-LSM and unlike ZMSQ, the MultiQueue's relaxation grows with
// the thread count, and an extraction can observe its two sampled heaps
// empty while other heaps hold elements — both properties the ZMSQ paper
// contrasts with its own guarantees. The implementation reproduces them
// faithfully (ExtractMax falls back to a full scan only after repeated
// sampling failures, mirroring common implementations).
package multiqueue

import (
	"sync"
	"sync/atomic"

	"repro/internal/pq"
	"repro/internal/xrand"
)

// DefaultFactor is the conventional c in c·p queues.
const DefaultFactor = 2

// MultiQueue is a relaxed concurrent priority queue. All methods are safe
// for concurrent use.
type MultiQueue struct {
	queues []subqueue
	rngs   sync.Pool
	seed   atomic.Uint64
}

type subqueue struct {
	mu   sync.Mutex
	heap *pq.SeqHeap
	// top caches the heap maximum (valid when size > 0) so peeking does
	// not need the lock.
	top  atomic.Uint64
	size atomic.Int64
	_    [32]byte
}

// New returns a MultiQueue with factor*p internal heaps (factor <= 0
// selects DefaultFactor; p < 1 is treated as 1).
func New(p, factor int) *MultiQueue {
	if p < 1 {
		p = 1
	}
	if factor <= 0 {
		factor = DefaultFactor
	}
	m := &MultiQueue{queues: make([]subqueue, p*factor)}
	for i := range m.queues {
		m.queues[i].heap = pq.NewSeqHeap(0)
	}
	m.rngs.New = func() any { return xrand.New(xrand.Mix64(m.seed.Add(1) + 0xabcd)) }
	return m
}

// Insert adds key to a uniformly random internal heap.
func (m *MultiQueue) Insert(key uint64) {
	r := m.rngs.Get().(*xrand.Rand)
	i := r.Intn(len(m.queues))
	m.rngs.Put(r)
	q := &m.queues[i]
	q.mu.Lock()
	q.heap.Insert(key)
	if top, _ := q.heap.Max(); true {
		q.top.Store(top)
	}
	q.size.Add(1)
	q.mu.Unlock()
}

// ExtractMax samples two random heaps and pops from the one with the larger
// cached top. After a bounded number of empty samples it scans all heaps
// once; ok=false means every heap was observed empty during the scan.
func (m *MultiQueue) ExtractMax() (uint64, bool) {
	r := m.rngs.Get().(*xrand.Rand)
	defer m.rngs.Put(r)
	const sampleAttempts = 4
	for attempt := 0; attempt < sampleAttempts; attempt++ {
		a := r.Intn(len(m.queues))
		b := r.Intn(len(m.queues))
		best := m.pick(a, b)
		if best < 0 {
			continue
		}
		if k, ok := m.popFrom(best); ok {
			return k, true
		}
	}
	// Fallback scan so a nonempty MultiQueue cannot starve a caller
	// forever; one pass is enough for the harness's retry loops.
	for i := range m.queues {
		if k, ok := m.popFrom(i); ok {
			return k, true
		}
	}
	return 0, false
}

// pick returns the index (a or b) with the larger cached top, or -1 if both
// appear empty.
func (m *MultiQueue) pick(a, b int) int {
	qa, qb := &m.queues[a], &m.queues[b]
	ea, eb := qa.size.Load() > 0, qb.size.Load() > 0
	switch {
	case ea && eb:
		if qa.top.Load() >= qb.top.Load() {
			return a
		}
		return b
	case ea:
		return a
	case eb:
		return b
	default:
		return -1
	}
}

func (m *MultiQueue) popFrom(i int) (uint64, bool) {
	q := &m.queues[i]
	q.mu.Lock()
	k, ok := q.heap.ExtractMax()
	if ok {
		q.size.Add(-1)
		if top, has := q.heap.Max(); has {
			q.top.Store(top)
		}
	}
	q.mu.Unlock()
	return k, ok
}

// Name implements the harness's Named interface.
func (m *MultiQueue) Name() string { return "multiqueue" }

var _ pq.Queue = (*MultiQueue)(nil)
