package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/locks"
	"repro/internal/waitring"
	"repro/internal/wal"
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

	ring   *waitring.Ring  // non-nil iff cfg.Blocking
	ad     *AllocDomain[V] // set-node reclamation seam (possibly shared)
	faults *fault.Injector // non-nil only under chaos testing
	met    *Metrics        // non-nil iff cfg.Metrics was set

	// wal is the durability policy (see wal.go); nil keeps the hot paths
	// free of durability branches beyond one predictable nil check.
	// walOwned records whether CloseWAL closes it (Config.Durability) or
	// only syncs it (Config.WAL, externally owned).
	wal      WALPolicy
	walOwned bool
	// codec encodes payloads for valued WAL records (Options.Codec); nil
	// keeps the log key-only. Checked only inside q.wal != nil branches,
	// so codec-off costs nothing on the hot paths.
	codec wal.Codec[V]

	ctxs    sync.Pool
	seedCtr atomic.Uint64
	closed  atomic.Bool

	helperStop  chan struct{}
	helperMoves atomic.Int64
}

// Options carries the two construction inputs Config cannot: both are
// generic over the payload type V. The zero value is a private allocation
// domain and key-only logging.
type Options[V any] struct {
	// Domain, when non-nil, is the allocation domain the queue's set nodes
	// recycle through. Handing the same domain to several queues pools their
	// recycled nodes, hazard handles and (leaky mode) node cache — the
	// sharded front-end builds S shards over one domain this way. It must
	// have been built (NewAllocDomain) from a config with the same set mode
	// and leak setting. nil builds a private domain.
	Domain *AllocDomain[V]
	// Codec, when non-nil, encodes payloads for the durability layer: Insert
	// and InsertBatch log each element's encoded value alongside its key (wal
	// record format v2) and Open decodes recovered payloads back through it.
	// nil logs key-only v1 records — bit-identical on disk to the pre-payload
	// format — and recovers zero values.
	Codec wal.Codec[V]
}

// New returns an empty queue configured by cfg — Open with default Options,
// the recovered state dropped, and any error a panic. Callers building
// configs from external input, or pointing Config.Durability at a directory
// someone else supplied, should call Open. See Config and DefaultConfig.
func New[V any](cfg Config) *Queue[V] {
	q, _, err := Open(cfg, Options[V]{})
	if err != nil {
		panic(err)
	}
	return q
}

// Open is the one way to build a queue. Without durability in cfg the queue
// is volatile and the returned state is nil; an external Config.WAL policy is
// attached un-owned. With Config.Durability.WAL set, Open always recovers:
// the durable element multiset is read back from the directory's snapshot
// chain + log (a missing or empty directory recovers to an empty state),
// decoded through opts.Codec, re-inserted, and only then is the reopened log
// attached — the recovered elements are already in the log, and re-appending
// them would double-count on the next Open. The returned wal.State says what
// was recovered; State.Live() == 0 is a fresh queue. A directory holding
// value payloads is rejected without a codec rather than silently stripped.
//
// Everything that can fail — validation, a domain whose mode does not match
// cfg, recovery, decoding, opening the log — runs before the queue is built,
// so an error leaves no queue, goroutine or open file behind.
func Open[V any](cfg Config, opts Options[V]) (*Queue[V], *wal.State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if opts.Domain != nil {
		if err := opts.Domain.Compatible(cfg); err != nil {
			return nil, nil, err
		}
	}
	var (
		st   *wal.State
		vals []V
		w    = cfg.WAL
	)
	if d := cfg.Durability; d != nil && d.WAL {
		var err error
		if st, err = wal.Recover(d.Dir); err != nil {
			return nil, nil, err
		}
		if vals, err = DecodeRecovered(st, opts.Codec); err != nil {
			return nil, nil, err
		}
		l, err := wal.Open(cfg.WALOptions())
		if err != nil {
			return nil, nil, err
		}
		w = l
	}

	cfg = cfg.withDefaults()
	q := &Queue[V]{
		cfg:       cfg,
		batch:     cfg.Batch,
		targetLen: cfg.TargetLen,
		useTry:    !cfg.NoTryLock,
		faults:    cfg.Faults,
		met:       cfg.Metrics,
		codec:     opts.Codec,
	}
	if q.ad = opts.Domain; q.ad == nil {
		q.ad = NewAllocDomain[V](cfg)
	}
	q.levels[0] = q.newLevel(1)
	if cfg.Batch > 0 {
		q.pool = newBatchPool[V](cfg.Batch, cfg.Faults)
	}
	if cfg.Blocking {
		q.ring = waitring.New(cfg.RingSize)
	}
	if cfg.Helper {
		q.helperStop = make(chan struct{})
	}
	q.ctxs.New = func() any {
		id := q.seedCtr.Add(1)
		c := &opCtx[V]{}
		c.rng.Seed(xrand.Mix64(cfg.Seed + id*0x9e3779b97f4a7c15))
		c.al = newCtxAlloc(q.ad, q.met, uint32(id))
		if c.al.h != nil {
			// sync.Pool drops idle contexts at a GC. One that kept its
			// record would strand it, active and with its retirees, on the
			// domain's grow-only list for every later scan to walk.
			runtime.SetFinalizer(c, func(c *opCtx[V]) { c.al.release() })
		}
		// Pool refills move up to Batch elements; a batch root grab moves up
		// to Batch+1. A split moves at most TargetLen+1 (half of an
		// overflowing set). Pre-sizing both means the scratch slices never
		// grow on the hot paths.
		c.scratch = make([]element[V], 0, cfg.Batch+1)
		c.split = make([]element[V], 0, cfg.TargetLen+2)
		c.splitR = make([]element[V], 0, cfg.TargetLen+2)
		if q.wal != nil {
			// Scratch for ExtractBatch's one-record-per-batch logging;
			// only paid for when durability is on.
			c.wkeys = make([]uint64, 0, cfg.Batch+1)
			if q.codec != nil {
				// Valued-insert encoding scratch: one arena the codec
				// appends into plus the per-member views handed to the
				// WAL. Sized for a batch; they grow to steady state if
				// payloads are larger.
				c.venc = make([]byte, 0, 4096)
				c.voffs = make([]int, 0, cfg.Batch+1)
				c.vptrs = make([][]byte, 0, cfg.Batch+1)
			}
		}
		return c
	}
	if st != nil {
		q.InsertBatch(st.Keys, vals) // bare: the log already holds these
	}
	q.wal, q.walOwned = w, st != nil // a log Open opened is the queue's to close
	if cfg.Helper {
		go q.helperLoop(cfg.HelperInterval)
	}
	return q, st, nil
}

func (q *Queue[V]) newLevel(n int) []tnode[V] {
	level := make([]tnode[V], n)
	for i := range level {
		level[i].lock = locks.New(q.cfg.Lock)
		if q.cfg.arraySet() {
			level[i].set = newArraySet[V](2*q.cfg.TargetLen + 8)
		} else {
			level[i].set = &listSet[V]{}
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
	q.faults.Stall(fault.TreeGrow)
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

// Close releases consumers blocked in ExtractMax (blocking mode). Blocked
// and future ExtractMax calls return ok=false once the queue is empty.
// Insert remains usable; Close is idempotent.
func (q *Queue[V]) Close() {
	if !q.closed.CompareAndSwap(false, true) {
		return
	}
	if q.helperStop != nil {
		close(q.helperStop)
	}
	if q.ring != nil {
		q.ring.Close()
	}
}

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
	var scratch []element[V]
	for l := 0; l <= top; l++ {
		nodes := q.levels[l]
		for i := range nodes {
			if nodes[i].count.Load() == 0 {
				continue
			}
			scratch = nodes[i].set.ascending(scratch[:0])
			for _, e := range scratch {
				if !f(e.key, e.val) {
					return
				}
			}
		}
	}
}
