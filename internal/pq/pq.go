// Package pq defines the cross-implementation priority-queue interface used
// by the experiment harness, plus the simple reference implementations the
// paper's evaluation leans on: a sequential binary heap (exact results for
// accuracy scoring), a global-lock heap (strict concurrent baseline), and a
// FIFO queue (the accuracy floor referenced in Table 1 — "worse than a FIFO
// queue").
//
// Keys are uint64 priorities; larger keys are higher priority, matching the
// paper's extractMax orientation.
package pq

import (
	"context"
	"errors"
)

// ErrEmpty is returned by ContextExtractor implementations that cannot
// block when the queue is observed empty.
var ErrEmpty = errors.New("pq: queue empty")

// ErrClosed is returned by ContextExtractor implementations once the queue
// is closed and drained.
var ErrClosed = errors.New("pq: queue closed and drained")

// Queue is the minimal interface every priority-queue implementation in
// this repository satisfies. Implementations must be safe for concurrent
// use unless their documentation says otherwise.
type Queue interface {
	// Insert adds key to the queue.
	Insert(key uint64)
	// ExtractMax removes and returns a high-priority key. Strict
	// implementations return the maximum; relaxed implementations return a
	// key near the maximum, per their relaxation contract. The second
	// result is false if the implementation observed an empty (or, for
	// SprayList, possibly-empty) queue.
	ExtractMax() (uint64, bool)
}

// Named is implemented by queues that know their display name for
// experiment output.
type Named interface {
	Name() string
}

// Closer is the optional capability interface for queues that own
// background resources (goroutines, thread-local handles). Harness runners
// type-assert against it at teardown instead of declaring ad-hoc
// structural interfaces inline.
type Closer interface {
	Close()
}

// Batcher is the optional capability interface for queues with native
// batch operations. The harness's batch-mode workloads use it when
// present; implementations must provide the same relaxation/ordering
// contract as the equivalent sequence of single-element calls.
type Batcher interface {
	Queue
	// InsertBatch adds every key in keys.
	InsertBatch(keys []uint64)
	// ExtractBatch removes up to n high-priority keys, appending them to
	// dst and returning the extended slice. Fewer than n appended keys
	// means the queue was observed empty.
	ExtractBatch(dst []uint64, n int) []uint64
}

// ContextExtractor is the optional capability interface for queues whose
// extraction honors a context: blocking implementations sleep
// deadline-aware while empty; non-blocking ones return an empty error
// instead of waiting. Implementations must return ErrEmpty / ErrClosed (or
// errors wrapping them) for those two outcomes and ctx.Err() for context
// cancellation; adapters over concrete queues translate the queue's own
// sentinels. Callers classify with IsEmpty/IsClosed, so harness code never
// needs the concrete queue type.
type ContextExtractor interface {
	ExtractMaxContext(ctx context.Context) (uint64, error)
}

// IsEmpty reports whether err marks a transient empty-queue observation
// from any implementation's ExtractMaxContext.
func IsEmpty(err error) bool {
	return errors.Is(err, ErrEmpty)
}

// IsClosed reports whether err marks a closed-and-drained queue.
func IsClosed(err error) bool {
	return errors.Is(err, ErrClosed)
}

// NameOf returns q's display name, falling back to fallback.
func NameOf(q Queue, fallback string) string {
	if n, ok := q.(Named); ok {
		return n.Name()
	}
	return fallback
}
