// Package sharded composes S independent ZMSQ shards into one relaxed
// priority queue, trading a wider — but still bounded — relaxation
// window for MultiQueue-style scalability (Rihani, Sanders & Dementiev:
// sharding plus choice-of-two extraction buys near-linear scaling at a
// bounded quality cost).
//
// Inserts are thread-affine: each pooled operation context is pinned to a
// home shard, so a goroutine's inserts stream into one shard's tree with
// no cross-shard traffic (a caller that wants that pinning to outlast the
// pool's memory holds a Handle). Extraction is choice-of-two over the shards'
// advisory maxima (PeekMax: pool top vs root max), with every S'th
// extraction on a context upgraded to a full peek sweep that targets the
// argmax shard, and a work-stealing sweep over all shards before an empty
// queue is ever reported.
//
// # Composed relaxation bound
//
// Each shard keeps ZMSQ's window guarantee: its own maximum is returned at
// least once per Batch+1 consecutive extractions from that shard. For a
// quiescent single consumer (the contract checker's strict sections) the
// global maximum g living in shard i makes shard i's PeekMax equal g —
// g is either the shard's pool top or its root's cached max — so every
// full sweep extracts from shard i while g remains queued. Full sweeps
// occur at least once per S extractions, hence shard i is drawn from at
// least once per S extractions, and g surfaces within Batch+1 shard-i
// draws: the true maximum is returned at least once in any S·(Batch+1)
// consecutive extractions. internal/contract encodes exactly this bound
// (contract.Config.Shards).
//
// All shards recycle set nodes through ONE shared core.AllocDomain — one
// hazard domain, one freelist, one leaky-mode node cache — instead of S
// private copies, so churn moving between shards does not fragment the
// recycling pools.
package sharded

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// Config configures a sharded queue.
type Config struct {
	// Shards is the shard count S; 0 selects min(GOMAXPROCS, 8). The
	// relaxation window composes to S·(Batch+1), so more shards buy
	// scalability at a proportionally wider quality window.
	Shards int

	// Queue is the per-shard ZMSQ configuration template. Faults is shared
	// by every shard; a non-nil Metrics enables instrumentation, with each
	// shard receiving its own derived Metrics (a core.Metrics must observe
	// at most one queue) — read the merged view through Queue.Snapshot.
	// Blocking is rejected: per-shard wait rings cannot compose a
	// cross-shard sleep (see Validate).
	Queue core.Config
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("sharded: Config.Shards is %d; it must be >= 0 (0 selects min(GOMAXPROCS, %d))", c.Shards, defaultMaxShards)
	}
	if c.Queue.Blocking {
		return fmt.Errorf("sharded: Config.Queue.Blocking is not supported: a consumer sleeping on one shard's ring would miss inserts landing on the other shards; use ExtractMaxContext polling or a single blocking core queue")
	}
	return c.Queue.Validate()
}

// defaultMaxShards caps the default shard count; beyond ~8 shards the
// composed relaxation window grows faster than contention shrinks.
const defaultMaxShards = 8

// DefaultShards returns the default shard count: min(GOMAXPROCS, 8).
func DefaultShards() int {
	s := runtime.GOMAXPROCS(0)
	if s > defaultMaxShards {
		s = defaultMaxShards
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardSlot pads each shard's hot pointer set onto its own cache line so
// scans of the shard table don't false-share with neighbours.
type shardSlot[V any] struct {
	q   *core.Queue[V]
	met *core.Metrics // nil unless metrics are enabled
	_   [48]byte
}

// Queue is a sharded relaxed priority queue over S core ZMSQ shards. All
// methods are safe for concurrent use.
type Queue[V any] struct {
	shards []shardSlot[V]
	cfg    Config
	ad     *core.AllocDomain[V]

	// wal is the durability policy shared by every shard (see wal.go):
	// one log, one LSN space, so recovery rebuilds the union of the
	// shards without per-shard log merging. walOwned records whether
	// CloseWAL closes it.
	wal      core.WALPolicy
	walOwned bool

	ctxs    sync.Pool
	seedCtr atomic.Uint64
	homeCtr atomic.Uint32
	closed  atomic.Bool

	// Sharded-level telemetry (see Snapshot); incremented only on sweep
	// events, never per uncontended op.
	fullSweeps  atomic.Uint64
	stealSweeps atomic.Uint64
	steals      atomic.Uint64
}

// opCtx is the pooled per-operation state: a private RNG, the context's
// home shard for thread-affine inserts, and the extraction counter driving
// the periodic full peek sweep.
type opCtx struct {
	rng  xrand.Rand
	home uint32
	ops  uint32
}

// New returns an empty sharded queue configured by cfg — Open with default
// Options, the recovered state dropped, and any error a panic. Callers with
// external input, or a durability directory someone else supplied, should
// call Open.
func New[V any](cfg Config) *Queue[V] {
	q, _, err := Open(cfg, core.Options[V]{})
	if err != nil {
		panic(err)
	}
	return q
}

// Open is the one way to build a sharded queue; it takes the same Options
// as core.Open and makes the same promises. Every shard of the returned
// queue — and, when several queues are opened over one Options.Domain,
// every shard of every such queue — shares one hazard-pointer domain,
// freelist and node cache; this is how a multi-tenant server keeps N tenant
// queues on one memory-reclamation substrate instead of N (see
// internal/server). Without durability in cfg.Queue the queue is volatile
// and the returned state is nil; an external cfg.Queue.WAL policy is shared
// by every shard un-owned. With cfg.Queue.Durability.WAL set, Open always
// recovers: the durable multiset is read back, decoded through opts.Codec
// and re-inserted bare before the one log all shards share is attached (see
// wal.go). Everything that can fail runs before the first shard is built.
func Open[V any](cfg Config, opts core.Options[V]) (*Queue[V], *wal.State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards()
	}
	if opts.Domain != nil {
		if err := opts.Domain.Compatible(cfg.Queue); err != nil {
			return nil, nil, err
		}
	}
	var (
		st   *wal.State
		vals []V
		w    = cfg.Queue.WAL
	)
	if d := cfg.Queue.Durability; d != nil && d.WAL {
		var err error
		if st, err = wal.Recover(d.Dir); err != nil {
			return nil, nil, err
		}
		if vals, err = core.DecodeRecovered(st, opts.Codec); err != nil {
			return nil, nil, err
		}
		l, err := wal.Open(cfg.Queue.WALOptions())
		if err != nil {
			return nil, nil, err
		}
		w = l
	}

	if opts.Domain == nil {
		opts.Domain = core.NewAllocDomain[V](cfg.Queue)
	}
	q := &Queue[V]{
		shards: make([]shardSlot[V], cfg.Shards),
		cfg:    cfg,
		ad:     opts.Domain,
	}
	for i := range q.shards {
		scfg := cfg.Queue
		// Decorrelate the shards' insert-path RNG streams.
		scfg.Seed = cfg.Queue.Seed + uint64(i+1)*0x9e3779b97f4a7c15
		// The shards are built bare: they log through ONE shared policy
		// (single LSN space), attached below and never owned by a shard.
		scfg.Durability = nil
		scfg.WAL = nil
		if cfg.Queue.Metrics != nil {
			if i == 0 {
				// Shard 0 keeps the caller's Metrics so an externally held
				// pointer still observes traffic (and the shared domain's
				// hazard-scan hook, wired to it by NewAllocDomain).
				q.shards[i].met = cfg.Queue.Metrics
			} else {
				q.shards[i].met = core.NewMetrics()
			}
			scfg.Metrics = q.shards[i].met
		}
		sq, _, err := core.Open(scfg, opts)
		if err != nil {
			// Unreachable: cfg.Queue and the domain were checked above, and a
			// bare shard opens nothing.
			panic(err)
		}
		q.shards[i].q = sq
	}
	q.ctxs.New = func() any { return q.newCtx() }
	if st != nil {
		q.InsertBatch(st.Keys, vals) // bare: the log already holds these
	}
	if w != nil {
		for i := range q.shards {
			q.shards[i].q.AttachWAL(w)
		}
		q.wal, q.walOwned = w, st != nil // a log Open opened is the queue's to close
	}
	return q, st, nil
}

// newCtx makes a context homed on the next shard in turn.
func (q *Queue[V]) newCtx() *opCtx {
	id := q.seedCtr.Add(1)
	c := &opCtx{home: q.homeCtr.Add(1) % uint32(len(q.shards))}
	c.rng.Seed(xrand.Mix64(q.cfg.Queue.Seed ^ (id * 0x9e3779b97f4a7c15)))
	return c
}

// NumShards returns the shard count S.
func (q *Queue[V]) NumShards() int { return len(q.shards) }

func (q *Queue[V]) getCtx() *opCtx  { return q.ctxs.Get().(*opCtx) }
func (q *Queue[V]) putCtx(c *opCtx) { q.ctxs.Put(c) }

// Insert adds (key, val) to the inserting context's home shard. Contexts
// are pooled per-P, so a goroutine's inserts stay on one shard — the
// thread-affine fast path; cross-shard balance is restored on the
// extraction side (choice-of-two, sweeps, stealing).
func (q *Queue[V]) Insert(key uint64, val V) {
	c := q.getCtx()
	q.shards[c.home].q.Insert(key, val)
	q.putCtx(c)
}

// TryExtractMax removes and returns a high-priority element without
// blocking. ok=false means every shard was observed empty during a full
// stealing sweep. Unlike a single shard's root-lock observation, the sweep
// is not an atomic cut: a concurrent insert landing on an already-swept
// shard can be missed, so the §3.7 never-fails property holds per shard
// but only best-effort across shards.
func (q *Queue[V]) TryExtractMax() (key uint64, val V, ok bool) {
	c := q.getCtx()
	key, val, ok = q.tryExtract(c)
	q.putCtx(c)
	return key, val, ok
}

// ExtractMax is TryExtractMax: the sharded queue has no blocking mode.
func (q *Queue[V]) ExtractMax() (uint64, V, bool) { return q.TryExtractMax() }

func (q *Queue[V]) tryExtract(c *opCtx) (uint64, V, bool) {
	s := uint32(len(q.shards))
	c.ops++
	if s == 1 {
		return q.shards[0].q.TryExtractMax()
	}
	var pick uint32
	if c.ops%s == 0 {
		// Periodic full peek sweep: target the argmax shard so the shard
		// holding the global maximum is drawn from at least once per S
		// extractions on this context (the composed-window guarantee).
		q.fullSweeps.Add(1)
		pick = q.argmaxShard()
	} else {
		pick = q.choiceOfTwo(c)
	}
	if k, v, ok := q.shards[pick].q.TryExtractMax(); ok {
		return k, v, true
	}
	// The chosen shard was empty (or raced dry): steal from any other
	// shard before reporting empty.
	return q.stealSweep(c, pick)
}

// choiceOfTwo compares two distinct shards' advisory maxima and returns
// the better one (the classic power-of-two-choices step). Callers
// guarantee S > 1.
func (q *Queue[V]) choiceOfTwo(c *opCtx) uint32 {
	s := uint32(len(q.shards))
	a := c.rng.Uint32() % s
	b := c.rng.Uint32() % (s - 1)
	if b >= a {
		b++
	}
	ka, oka := q.shards[a].q.PeekMax()
	kb, okb := q.shards[b].q.PeekMax()
	if !oka || (okb && kb > ka) {
		return b
	}
	return a
}

// argmaxShard returns the shard with the largest advisory maximum (empty
// shards compare as -inf; ties and the all-empty case fall to shard 0).
func (q *Queue[V]) argmaxShard() uint32 {
	var (
		best    uint32
		bestKey uint64
		found   bool
	)
	for i := range q.shards {
		if k, ok := q.shards[i].q.PeekMax(); ok && (!found || k > bestKey) {
			best, bestKey, found = uint32(i), k, true
		}
	}
	return best
}

// stealSweep visits every shard other than skip in a random rotation,
// returning the first successful extraction.
func (q *Queue[V]) stealSweep(c *opCtx, skip uint32) (uint64, V, bool) {
	q.stealSweeps.Add(1)
	s := uint32(len(q.shards))
	start := c.rng.Uint32()
	for i := uint32(0); i < s; i++ {
		sh := (start + i) % s
		if sh == skip {
			continue
		}
		if k, v, ok := q.shards[sh].q.TryExtractMax(); ok {
			q.steals.Add(1)
			return k, v, true
		}
	}
	var zero V
	return 0, zero, false
}

// PeekMax returns an advisory snapshot of the highest-priority key across
// all shards; exact when quiescent, possibly stale under concurrency.
func (q *Queue[V]) PeekMax() (uint64, bool) {
	var (
		best  uint64
		found bool
	)
	for i := range q.shards {
		if k, ok := q.shards[i].q.PeekMax(); ok && (!found || k > best) {
			best, found = k, true
		}
	}
	return best, found
}

// Len returns a snapshot count of queued elements across all shards;
// exact when quiescent, best-effort under concurrency.
func (q *Queue[V]) Len() int {
	total := 0
	for i := range q.shards {
		total += q.shards[i].q.Len()
	}
	return total
}

// Empty reports whether Len() == 0, with the same snapshot caveat.
func (q *Queue[V]) Empty() bool {
	for i := range q.shards {
		if !q.shards[i].q.Empty() {
			return false
		}
	}
	return true
}

// ForEach visits every queued element across all shards in unspecified
// order, stopping early if f returns false. Quiescent-queue diagnostics,
// exactly like core.Queue.ForEach.
func (q *Queue[V]) ForEach(f func(key uint64, val V) bool) {
	stopped := false
	for i := range q.shards {
		if stopped {
			return
		}
		q.shards[i].q.ForEach(func(k uint64, v V) bool {
			if !f(k, v) {
				stopped = true
				return false
			}
			return true
		})
	}
}

// CheckInvariants validates every shard's structural invariants. Like the
// core checker it must only run on a quiescent queue.
func (q *Queue[V]) CheckInvariants() error {
	for i := range q.shards {
		if err := q.shards[i].q.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Close closes every shard. Insert remains usable; Close is idempotent.
func (q *Queue[V]) Close() {
	if !q.closed.CompareAndSwap(false, true) {
		return
	}
	for i := range q.shards {
		q.shards[i].q.Close()
	}
}

// Closed reports whether Close has been called.
func (q *Queue[V]) Closed() bool { return q.closed.Load() }

// Drain removes every element across all shards, returning them in
// extraction order (each sweep takes the best advisory shard first, so the
// order is near-descending with the usual relaxation caveats).
func (q *Queue[V]) Drain() []core.Element[V] {
	var out []core.Element[V]
	c := q.getCtx()
	defer q.putCtx(c)
	for {
		k, v, ok := q.tryExtract(c)
		if !ok {
			return out
		}
		out = append(out, core.Element[V]{Key: k, Val: v})
	}
}

// CloseAndDrain closes the queue and returns every remaining element.
func (q *Queue[V]) CloseAndDrain() []core.Element[V] {
	q.Close()
	return q.Drain()
}

// ExtractMaxContext removes and returns a high-priority element, honoring
// ctx. The sharded queue has no blocking mode, so an empty observation
// returns core.ErrEmpty immediately; once the queue is closed and drained
// it returns core.ErrClosed. Remaining elements of a closed queue are
// still handed out, so shutdown never strands queued work.
func (q *Queue[V]) ExtractMaxContext(ctx context.Context) (uint64, V, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return 0, zero, err
	}
	if k, v, ok := q.TryExtractMax(); ok {
		return k, v, nil
	}
	if q.closed.Load() {
		// Re-try once: an element may have landed between the failed try
		// and the closed check (Insert remains legal after Close).
		if k, v, ok := q.TryExtractMax(); ok {
			return k, v, nil
		}
		return 0, zero, core.ErrClosed
	}
	return 0, zero, core.ErrEmpty
}
