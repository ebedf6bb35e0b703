package waitring

import (
	"runtime"

	"repro/internal/core"
)

// Queue is a core.Queue whose consumers sleep on an empty queue: the
// paper's §3.6 blocking mechanism. Inserts signal the ring once per element
// after the inner insert returns, and ExtractMax takes a ticket before it
// extracts, so a consumer whose ticket is covered finds an element (the
// ticket argument). Every insert and Close must go through the Queue — an
// insert into the inner queue wakes nobody, and closing it directly
// strands sleepers — so the inner queue is not embedded.
type Queue[V any] struct {
	q    *core.Queue[V]
	ring *ring
}

// New wraps q, which must be used only through the result from then on.
func New[V any](q *core.Queue[V]) *Queue[V] {
	return &Queue[V]{q: q, ring: newRing(defaultSlots)}
}

// Insert adds (key, val) to the queue and wakes one sleeping consumer if
// any is waiting for this element.
func (w *Queue[V]) Insert(key uint64, val V) {
	w.q.Insert(key, val)
	w.ring.Signal()
}

// InsertBatch adds every (keys[i], vals[i]) pair as core.Queue's does, then
// signals once per element.
func (w *Queue[V]) InsertBatch(keys []uint64, vals []V) {
	w.q.InsertBatch(keys, vals)
	for range keys {
		w.ring.Signal()
	}
}

// ExtractMax removes and returns a high-priority element, sleeping while
// the queue is empty. It returns ok=false only after Close, once the queue
// is observed empty.
func (w *Queue[V]) ExtractMax() (key uint64, val V, ok bool) {
	if !w.ring.Await() {
		// Closed before this consumer's ticket was covered; drain
		// best-effort.
		return w.q.TryExtractMax()
	}
	// The ticket argument (§3.6): once a consumer's ticket is covered by an
	// insert, the queue holds at least one element until this consumer
	// takes one, so the loop below terminates — unless a non-ticketed
	// extractor (TryExtractMax, CloseAndDrain) takes the covered element.
	// That race matters during shutdown, where CloseAndDrain deliberately
	// empties the queue, so a closed observation ends the wait instead of
	// spinning on a queue that will stay empty.
	for {
		if key, val, ok = w.q.TryExtractMax(); ok {
			return key, val, true
		}
		if w.q.Closed() {
			return w.q.TryExtractMax()
		}
		runtime.Gosched()
	}
}

// TryExtractMax removes and returns a high-priority element without
// sleeping; ok=false means the queue was observed empty.
func (w *Queue[V]) TryExtractMax() (key uint64, val V, ok bool) { return w.q.TryExtractMax() }

// Len returns a snapshot count of queued elements.
func (w *Queue[V]) Len() int { return w.q.Len() }

// Empty reports whether Len() == 0.
func (w *Queue[V]) Empty() bool { return w.q.Empty() }

// Close closes the queue, then releases every sleeping consumer: each
// returns ok=false once the queue is empty. Insert remains usable; Close is
// idempotent.
func (w *Queue[V]) Close() {
	w.q.Close()
	w.ring.Close()
}

// Closed reports whether Close has been called.
func (w *Queue[V]) Closed() bool { return w.q.Closed() }

// CloseAndDrain closes the queue (releasing sleeping consumers) and
// returns every remaining element; consumers racing the drain take some
// of them, each element going to exactly one taker. A second call returns
// whatever was inserted since the first drain.
func (w *Queue[V]) CloseAndDrain() []core.Element[V] {
	w.Close()
	return w.q.Drain()
}
