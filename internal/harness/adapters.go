// Package harness contains the experiment machinery shared by the cmd/
// tools and the root benchmark suite: queue adapters, key-distribution
// generators, and runners for the paper's three measurement styles —
// throughput under an operation mix (Figures 2, 3, 5), extraction accuracy
// (Table 1), and producer/consumer handoff latency (Figures 4, 6).
package harness

import (
	"context"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/klsm"
	"repro/internal/pq"
)

// ZMSQ adapts a payload-less core.Queue to the harness's pq.Queue.
type ZMSQ struct {
	Q *core.Queue[struct{}]
	n string
}

// NewZMSQ builds a ZMSQ adapter from cfg.
func NewZMSQ(cfg core.Config) *ZMSQ {
	return &ZMSQ{Q: core.New[struct{}](cfg), n: VariantName(cfg)}
}

// VariantName formats the display name the paper's figures use for a ZMSQ
// configuration. Registry makers override it with the maker key (see
// makers_zmsq.go); this is the label for ad-hoc Config cells.
func VariantName(cfg core.Config) string {
	name := "zmsq"
	if cfg.SetMode == core.SetModeArray {
		name += "(array)"
	}
	if cfg.Leaky {
		name += "(leak)"
	}
	return name
}

// pqErr translates core's extraction sentinels into package pq's, so
// harness callers classify outcomes with pq.IsEmpty/pq.IsClosed and never
// need the concrete queue type.
func pqErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrEmpty):
		return pq.ErrEmpty
	case errors.Is(err, core.ErrClosed):
		return pq.ErrClosed
	}
	return err
}

// Insert implements pq.Queue.
func (z *ZMSQ) Insert(key uint64) { z.Q.Insert(key, struct{}{}) }

// ExtractMax implements pq.Queue.
func (z *ZMSQ) ExtractMax() (uint64, bool) {
	k, _, ok := z.Q.TryExtractMax()
	return k, ok
}

// ExtractMaxContext implements pq.ContextExtractor.
func (z *ZMSQ) ExtractMaxContext(ctx context.Context) (uint64, error) {
	k, _, err := z.Q.ExtractMaxContext(ctx)
	return k, pqErr(err)
}

// Name implements pq.Named.
func (z *ZMSQ) Name() string { return z.n }

// Close implements pq.Closer.
func (z *ZMSQ) Close() { z.Q.Close() }

// InsertBatch implements pq.Batcher.
func (z *ZMSQ) InsertBatch(keys []uint64) { z.Q.InsertBatch(keys, nil) }

// elemBufs recycles the Element buffers ExtractBatch translates through;
// the adapter is shared across workers, so the buffer cannot live on the
// adapter itself.
var elemBufs = sync.Pool{
	New: func() any { return new([]core.Element[struct{}]) },
}

// ExtractBatch implements pq.Batcher.
func (z *ZMSQ) ExtractBatch(dst []uint64, n int) []uint64 {
	buf := elemBufs.Get().(*[]core.Element[struct{}])
	*buf = z.Q.ExtractBatch((*buf)[:0], n)
	for _, e := range *buf {
		dst = append(dst, e.Key)
	}
	elemBufs.Put(buf)
	return dst
}

// Compile-time capability registrations: every substrate reaches the
// runners through pq.Queue plus these optional interfaces.
var (
	_ pq.Queue            = (*ZMSQ)(nil)
	_ pq.Named            = (*ZMSQ)(nil)
	_ pq.Closer           = (*ZMSQ)(nil)
	_ pq.Batcher          = (*ZMSQ)(nil)
	_ pq.ContextExtractor = (*ZMSQ)(nil)
	_ pq.Queue            = (*KLSMAdapter)(nil)
	_ pq.Closer           = (*KLSMAdapter)(nil)
)

// KLSMAdapter exposes a k-LSM through pq.Queue using one handle per
// adapter; the caller must use one adapter per goroutine (matching the
// thread-local design).
type KLSMAdapter struct {
	h *klsm.Handle
	q *klsm.KLSM
}

// Insert implements pq.Queue.
func (a *KLSMAdapter) Insert(key uint64) { a.h.Insert(key) }

// ExtractMax implements pq.Queue.
func (a *KLSMAdapter) ExtractMax() (uint64, bool) { return a.h.ExtractMax() }

// Name implements pq.Named.
func (a *KLSMAdapter) Name() string { return "klsm" }

// Close releases the handle (spilling local elements).
func (a *KLSMAdapter) Close() { a.h.Release() }

// QueueMaker builds a fresh queue for one experiment run. threads is the
// worker count the experiment will use — SprayList, MultiQueue and the
// sharded front-end tune their relaxation to it, matching the paper's
// setup.
type QueueMaker func(threads int) pq.Queue
