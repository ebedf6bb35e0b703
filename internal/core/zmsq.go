package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/xrand"
)

// maxLevels caps the tree depth. Level i holds 2^i TNodes; with targetLen
// elements per node, a tree of depth 21 holds hundreds of millions of
// elements — far beyond the experiments' working sets. The cap exists so a
// pathological workload cannot allocate unbounded level arrays; if it is
// ever reached, inserts fall back to the always-succeeding root path.
const maxLevels = 22

// Queue is a ZMSQ relaxed concurrent priority queue holding (uint64, V)
// pairs, where larger keys have higher priority. All methods are safe for
// concurrent use.
type Queue[V any] struct {
	cfg       Config
	batch     int
	targetLen int
	useTry    bool

	levels    [maxLevels][]tnode[V]
	leafLevel atomic.Int32
	growMu    sync.Mutex

	// pool is the extraction pool (§3.3, see pool.go). nil iff
	// Config.Batch == 0, in which case every extraction is strict.
	pool *batchPool[V]

	ad     *AllocDomain[V] // where run buffers recycle (possibly shared)
	faults Faults          // non-nil only under chaos testing
	met    *Metrics        // non-nil iff cfg.Metrics was set

	ctxs    sync.Pool
	seedCtr atomic.Uint64
	closed  atomic.Bool
}

// Options carries the construction input Config cannot, because it is
// generic over the payload type V. The zero value is a private allocation
// domain.
type Options[V any] struct {
	// Domain, when non-nil, is the allocation domain the queue's run
	// buffers recycle through. Handing the same domain to several queues
	// pools their recycled buffers — the sharded front-end builds S shards
	// over one domain this way — and queues of either set mode may share
	// one. nil builds a private domain with no Reclaimer.
	Domain *AllocDomain[V]
}

// errDurable is Open's refusal of Config.Durability.
var errDurable = errors.New("zmsq: core.Open opens no log; Config.Durability is for sharded.Open (a durable single queue is one shard)")

// New returns an empty queue configured by cfg — Open with default Options,
// and any error a panic. Callers building configs from external input should
// call Open. See Config and DefaultConfig.
func New[V any](cfg Config) *Queue[V] {
	q, err := Open(cfg, Options[V]{})
	if err != nil {
		panic(err)
	}
	return q
}

// Open is the one way to build a queue. It refuses an invalid config and a
// config that sets Durability, before anything is built: the queue is
// in-memory, and logging belongs to the sharded front-end.
func Open[V any](cfg Config, opts Options[V]) (*Queue[V], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Durability != nil {
		return nil, errDurable
	}

	cfg = cfg.withDefaults()
	q := &Queue[V]{
		cfg:       cfg,
		batch:     cfg.Batch,
		targetLen: cfg.TargetLen,
		useTry:    !cfg.NoTryLock,
		faults:    cfg.Faults,
		met:       cfg.Metrics,
	}
	if q.ad = opts.Domain; q.ad == nil {
		q.ad = NewAllocDomain[V](nil)
	}
	q.ad.init(cfg.TargetLen)
	q.levels[0] = q.newLevel(1)
	if cfg.Batch > 0 {
		q.pool = newBatchPool[V](cfg.Batch, cfg.Faults)
	}
	q.ctxs.New = func() any {
		id := q.seedCtr.Add(1)
		c := &opCtx[V]{}
		c.rng.Seed(xrand.Mix64(cfg.Seed + id*0x9e3779b97f4a7c15))
		c.al = newCtxAlloc(q.ad, !cfg.arraySet(), q.met, uint32(id))
		if c.al.local != nil {
			// sync.Pool drops idle contexts at a GC. One that kept its
			// stacks would take the reusable buffers on them with it (and
			// Hazards it kept, whatever they hold).
			runtime.SetFinalizer(c, func(c *opCtx[V]) { c.al.release() })
		}
		// Pool refills move up to Batch elements; a batch root grab moves up
		// to Batch+1. A split moves at most TargetLen+1 (half of an
		// overflowing set). Pre-sizing both means the scratch slices never
		// grow on the hot paths.
		c.scratch = make([]element[V], 0, cfg.Batch+1)
		c.split = make([]element[V], 0, cfg.TargetLen+2)
		c.splitR = make([]element[V], 0, cfg.TargetLen+2)
		return c
	}
	return q, nil
}

func (q *Queue[V]) newLevel(n int) []tnode[V] {
	level := make([]tnode[V], n)
	for i := range level {
		level[i].lock.kind = q.cfg.Lock
		if q.cfg.arraySet() {
			level[i].set.e = make([]element[V], 0, 2*q.cfg.TargetLen+8)
		}
	}
	return level
}

func (q *Queue[V]) node(level, slot int) *tnode[V] {
	return &q.levels[level][slot]
}

func (q *Queue[V]) root() *tnode[V] { return &q.levels[0][0] }

// expandTree grows the tree by one level if leafLevel is still from. It
// reports false only when the depth cap is reached.
func (q *Queue[V]) expandTree(from int) bool {
	q.growMu.Lock()
	defer q.growMu.Unlock()
	cur := int(q.leafLevel.Load())
	if cur != from {
		return true // someone else already grew the tree
	}
	if cur+1 >= maxLevels {
		return false
	}
	// Chaos hook: pause between deciding to grow and publishing the level,
	// while concurrent inserts spin through selectPosition against the
	// stale leafLevel and other growers block on growMu.
	if q.faults != nil {
		q.faults.StallTreeGrow()
	}
	// Publish the level's nodes before advancing leafLevel: readers load
	// leafLevel (acquire) before indexing levels, so they always observe
	// initialized nodes.
	q.levels[cur+1] = q.newLevel(1 << (cur + 1))
	q.leafLevel.Store(int32(cur + 1))
	return true
}

func (q *Queue[V]) getCtx() *opCtx[V]  { return q.ctxs.Get().(*opCtx[V]) }
func (q *Queue[V]) putCtx(c *opCtx[V]) { c.clearHazards(); q.ctxs.Put(c) }

// Len returns a snapshot count of queued elements: the sum of node counts
// plus unclaimed pool entries. It is exact when the queue is quiescent and
// a best-effort estimate under concurrency. Cost is O(tree nodes).
func (q *Queue[V]) Len() int {
	var total int64
	top := int(q.leafLevel.Load())
	for l := 0; l <= top; l++ {
		nodes := q.levels[l]
		for i := range nodes {
			total += nodes[i].count.Load()
		}
	}
	if q.pool != nil {
		if p := q.pool.occupancy(); p > 0 {
			total += p
		}
	}
	if total < 0 {
		total = 0
	}
	return int(total)
}

// Empty reports whether Len() == 0. Subject to the same snapshot caveat.
func (q *Queue[V]) Empty() bool {
	if q.pool != nil && q.pool.occupancy() > 0 {
		return false
	}
	return q.root().count.Load() == 0
}

// PoolOccupancy reports the number of unclaimed extraction-pool entries —
// 0 when the pool is empty or the queue is strict (Config.Batch == 0). It
// is a best-effort snapshot under concurrency, exact when quiescent. The
// sharded front-end uses it for steal/imbalance accounting.
func (q *Queue[V]) PoolOccupancy() int64 {
	if q.pool == nil {
		return 0
	}
	if p := q.pool.occupancy(); p > 0 {
		return p
	}
	return 0
}

// Close marks the queue closed; it stops nothing, because the queue runs
// no goroutine. Insert and extraction remain usable; Close is idempotent.
func (q *Queue[V]) Close() { q.closed.Store(true) }

// Closed reports whether Close has been called.
func (q *Queue[V]) Closed() bool { return q.closed.Load() }

// ForEach visits every queued element — tree contents plus unclaimed pool
// entries — in unspecified order, stopping early if f returns false. It
// takes no locks and is intended for quiescent queues (diagnostics,
// checkpointing); under concurrency it is a best-effort snapshot.
//
// Pool slots are snapshotted through the same full-flag handoff protocol
// the consumer path uses: a slot's contents are stable from the refiller's
// full.Store(1) (release) until the claiming consumer's full.Store(0), so
// the walk copies the contents between two acquire loads of the flag and
// discards the copy if either load sees the slot released. Remaining
// best-effort scope: if a full claim-and-refill cycle completes entirely
// between the two loads (flag goes 1→0→1), the copy can blend the two
// generations. That window is a handful of instructions wide and requires
// a refill racing ForEach; it is accepted for a diagnostics-only snapshot
// rather than adding per-slot sequence counters to the extraction hot
// path.
func (q *Queue[V]) ForEach(f func(key uint64, val V) bool) {
	if q.pool != nil {
		if !q.pool.forEach(f) {
			return
		}
	}
	top := int(q.leafLevel.Load())
	for l := 0; l <= top; l++ {
		nodes := q.levels[l]
		for i := range nodes {
			for _, e := range nodes[i].set.e {
				if !f(e.key, e.val) {
					return
				}
			}
		}
	}
}
