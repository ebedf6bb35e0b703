// Package harness contains the experiment machinery shared by the cmd/
// tools and the root benchmark suite: queue adapters, key-distribution
// generators, and runners for the paper's three measurement styles —
// throughput under an operation mix (Figures 2, 3, 5), extraction accuracy
// (Table 1), and producer/consumer handoff latency (Figures 4, 6).
package harness

import (
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hazard"
	"repro/internal/pq"
	"repro/internal/waitring"
)

// ZMSQ adapts a payload-less core.Queue to the harness's pq.Queue.
type ZMSQ struct {
	Q *core.Queue[struct{}]
	n string
}

// NewZMSQ builds a ZMSQ adapter from cfg over the product's recycler: the
// paper's "ZMSQ (leak)".
func NewZMSQ(cfg core.Config) *ZMSQ {
	return &ZMSQ{Q: core.New[struct{}](cfg), n: VariantName(cfg, false)}
}

// NewHazardZMSQ builds the paper's memory-safe ZMSQ from cfg: a queue over
// NewHazardDomain, its scans counted on cfg.Metrics.
func NewHazardZMSQ(cfg core.Config) *ZMSQ {
	q, err := core.Open(cfg, core.Options[struct{}]{Domain: NewHazardDomain[struct{}](cfg.Metrics, nil)})
	if err != nil {
		panic(err)
	}
	return &ZMSQ{Q: q, n: VariantName(cfg, true)}
}

// NewHazardDomain returns an allocation domain that gates list-block reuse
// on internal/hazard's hazard pointers: the paper's §3.5 protocol, which
// the product does not run (core.AllocDomain says why), at its full cost.
// Its scans count on met.HazardScans and stall at inj's HazardScan point;
// either may be nil. Hand it to core.Open or sharded.Open as
// Options.Domain.
func NewHazardDomain[V any](met *core.Metrics, inj *fault.Injector) *core.AllocDomain[V] {
	return plugHazards(core.NewAllocDomain[V], func() {
		if met != nil {
			// Scans run with no operation context in reach; they are rare
			// (one per 64 retirements), so a fixed shard is fine.
			met.HazardScans.Inc(0)
		}
		inj.Stall(fault.HazardScan)
	})
}

// plugHazards builds a hazard.Domain over B, installs scanHook, and hands
// build a Reclaimer whose contexts join that domain. B is core's list
// block type, which this package cannot name: it is inferred from build's
// signature.
func plugHazards[B, D any](build func(core.Reclaimer[B]) D, scanHook func()) D {
	d := hazard.NewDomain[B]()
	d.SetScanHook(scanHook)
	return build(func(done func(*B)) core.Hazards[B] { return d.Get(done) })
}

// VariantName formats the display name the paper's figures use for a ZMSQ
// configuration: "zmsq" is the memory-safe queue (safe: over a
// NewHazardDomain), "(leak)" marks the product's recycler. Registry makers
// override it with the maker key (see makers_zmsq.go); this is the label
// for ad-hoc Config cells.
func VariantName(cfg core.Config, safe bool) string {
	name := "zmsq"
	if cfg.SetMode == core.SetModeArray {
		name += "(array)"
	}
	if !safe {
		name += "(leak)"
	}
	return name
}

// Insert implements pq.Queue.
func (z *ZMSQ) Insert(key uint64) { z.Q.Insert(key, struct{}{}) }

// ExtractMax implements pq.Queue with TryExtractMax.
func (z *ZMSQ) ExtractMax() (uint64, bool) {
	k, _, ok := z.Q.TryExtractMax()
	return k, ok
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

// BlockingZMSQ is a ZMSQ whose consumers sleep while the queue is empty:
// its core queue wrapped in the §3.6 ticket ring (waitring.Queue), Figure
// 4's blocking mode. Inserts and Close go through the ring; ExtractBatch,
// Name and Snapshot are the ZMSQ's.
type BlockingZMSQ struct {
	*ZMSQ
	w *waitring.Queue[struct{}]
}

// NewBlockingZMSQ wraps z, plain or over a NewHazardDomain, in the ring.
// z must be used only through the returned adapter from then on.
func NewBlockingZMSQ(z *ZMSQ) *BlockingZMSQ {
	return &BlockingZMSQ{ZMSQ: z, w: waitring.New(z.Q)}
}

// Insert implements pq.Queue, waking a sleeping consumer.
func (b *BlockingZMSQ) Insert(key uint64) { b.w.Insert(key, struct{}{}) }

// InsertBatch implements pq.Batcher, waking one sleeper per key.
func (b *BlockingZMSQ) InsertBatch(keys []uint64) { b.w.InsertBatch(keys, nil) }

// ExtractMax implements pq.Queue, sleeping while the queue is empty.
func (b *BlockingZMSQ) ExtractMax() (uint64, bool) {
	k, _, ok := b.w.ExtractMax()
	return k, ok
}

// Close implements pq.Closer, releasing every sleeping consumer.
func (b *BlockingZMSQ) Close() { b.w.Close() }

// Compile-time capability registrations: every substrate reaches the
// runners through pq.Queue plus these optional interfaces.
var (
	_ pq.Queue   = (*ZMSQ)(nil)
	_ pq.Named   = (*ZMSQ)(nil)
	_ pq.Closer  = (*ZMSQ)(nil)
	_ pq.Batcher = (*ZMSQ)(nil)
	_ pq.Closer  = (*BlockingZMSQ)(nil)
	_ pq.Batcher = (*BlockingZMSQ)(nil)
)

// QueueMaker builds a fresh queue for one experiment run. threads is the
// worker count the experiment will use — SprayList, MultiQueue and the
// sharded front-end tune their relaxation to it, matching the paper's
// setup.
type QueueMaker func(threads int) pq.Queue
