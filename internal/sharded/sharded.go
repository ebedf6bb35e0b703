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
// All shards recycle list blocks through ONE shared core.AllocDomain — one
// freelist — instead of S private copies, so churn moving between shards
// does not fragment the recycling pools.
//
// # Durability
//
// This package owns the write-ahead log; the core shards have none. With
// Config.Queue.Durability set, Open opens one log for all shards and
// recovers it, and every Insert, InsertBatch, TryExtractMax and
// ExtractBatch call — through the queue or a Handle — writes one record:
// inserts before they reach a shard, extractions after they leave it (see
// wal.go). A durable single queue is a one-shard Queue.
package sharded

import (
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

	// Queue is the per-shard ZMSQ configuration template. Faults (chaos
	// testing only) is shared by every shard; a non-nil Metrics enables
	// instrumentation, with each shard receiving its own derived Metrics
	// (a core.Metrics must observe at most one queue) — read the merged
	// view through Queue.Snapshot. Durability is the front-end's: Open
	// opens the one log and builds the shards without it (see wal.go).
	Queue core.Config
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("sharded: Config.Shards is %d; it must be >= 0 (0 selects min(GOMAXPROCS, %d))", c.Shards, defaultMaxShards)
	}
	if err := validateDurability(c.Queue.Durability); err != nil {
		return err
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

	// wal is the one log every operation of every shard goes through
	// (see wal.go), nil for a volatile queue; codec encodes the payloads
	// of valued insert records, nil logs them key-only.
	wal   *wal.Log
	codec wal.Codec[V]

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
// home shard for thread-affine inserts, the extraction counter driving
// the periodic full peek sweep, and the logging scratch of a durable queue.
type opCtx struct {
	rng  xrand.Rand
	home uint32
	ops  uint32
	log  logScratch
}

// New returns an empty sharded queue configured by cfg — Open with default
// Options, the recovered state dropped, and any error a panic. Callers with
// external input, or a durability directory someone else supplied, should
// call Open.
func New[V any](cfg Config) *Queue[V] {
	q, _, err := Open(cfg, Options[V]{})
	if err != nil {
		panic(err)
	}
	return q
}

// Open is the one way to build a sharded queue. Every shard of the
// returned queue — and, when several queues are opened over one
// Options.Domain, every shard of every such queue — shares one freelist;
// this is how a multi-tenant server keeps N tenant queues on one recycling
// pool instead of N (see internal/server).
//
// Without durability in cfg.Queue the queue is volatile and the returned
// state is nil. With cfg.Queue.Durability.WAL set, Open always recovers:
// it opens the log (wal.Open reads the durable multiset back from the
// directory's snapshot chain and log; a missing or empty directory
// recovers to an empty state) and decodes it through opts.Codec, the
// multiset is re-inserted bare, and only then does the queue start logging
// — the recovered elements are already in the log, and re-appending them
// would double-count on the next Open (see wal.go). The returned wal.State
// says what was recovered; State.Live() == 0 is a fresh queue. A directory
// holding value payloads is refused without a codec rather than silently
// stripped. Everything that can fail runs before the first shard is built,
// and a log opened before a failure is closed again, so an error leaves no
// queue, goroutine or open file behind.
func Open[V any](cfg Config, opts Options[V]) (*Queue[V], *wal.State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards()
	}
	log, st, vals, err := openLog(cfg.Queue.Durability, opts)
	if err != nil {
		return nil, nil, err
	}

	if opts.Domain == nil {
		opts.Domain = core.NewAllocDomain[V](nil)
	}
	q := &Queue[V]{
		shards: make([]shardSlot[V], cfg.Shards),
		cfg:    cfg,
		ad:     opts.Domain,
		codec:  opts.Codec,
	}
	for i := range q.shards {
		scfg := cfg.Queue
		// Decorrelate the shards' insert-path RNG streams.
		scfg.Seed = cfg.Queue.Seed + uint64(i+1)*0x9e3779b97f4a7c15
		// The shards have no log: the front-end logs for them.
		scfg.Durability = nil
		if cfg.Queue.Metrics != nil {
			if i == 0 {
				// Shard 0 keeps the caller's Metrics so an externally held
				// pointer still observes traffic.
				q.shards[i].met = cfg.Queue.Metrics
			} else {
				q.shards[i].met = core.NewMetrics()
			}
			scfg.Metrics = q.shards[i].met
		}
		sq, err := core.Open(scfg, core.Options[V]{Domain: opts.Domain})
		if err != nil {
			// Unreachable: cfg.Queue was checked above.
			panic(err)
		}
		q.shards[i].q = sq
	}
	q.ctxs.New = func() any { return q.newCtx() }
	if st != nil {
		q.InsertBatch(st.Keys, vals) // bare: the log already holds these
	}
	q.wal = log
	return q, st, nil
}

// newCtx makes a context homed on the next shard in turn.
func (q *Queue[V]) newCtx() *opCtx {
	id := q.seedCtr.Add(1)
	c := &opCtx{home: q.homeCtr.Add(1) % uint32(len(q.shards))}
	c.rng.Seed(xrand.Mix64(q.cfg.Queue.Seed ^ (id * 0x9e3779b97f4a7c15)))
	return c
}

func (q *Queue[V]) getCtx() *opCtx  { return q.ctxs.Get().(*opCtx) }
func (q *Queue[V]) putCtx(c *opCtx) { q.ctxs.Put(c) }

// Insert adds (key, val) to the inserting context's home shard. Contexts
// are pooled per-P, so a goroutine's inserts stay on one shard — the
// thread-affine fast path; cross-shard balance is restored on the
// extraction side (choice-of-two, sweeps, stealing).
func (q *Queue[V]) Insert(key uint64, val V) {
	c := q.getCtx()
	if q.wal != nil {
		c.log.k1[0] = key
		vals := [1]V{val}
		q.logInserts(c, c.log.k1[:], vals[:])
	}
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
	key, val, ok = q.extractOne(c)
	q.putCtx(c)
	return key, val, ok
}

// extractOne is tryExtract with the extraction logged.
func (q *Queue[V]) extractOne(c *opCtx) (uint64, V, bool) {
	k, v, ok := q.tryExtract(c)
	if ok && q.wal != nil {
		c.log.k1[0] = k
		q.wal.AppendExtracts(c.log.k1[:])
	}
	return k, v, ok
}

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

// Len returns a snapshot count of queued elements across all shards;
// exact when quiescent, best-effort under concurrency.
func (q *Queue[V]) Len() int {
	total := 0
	for i := range q.shards {
		total += q.shards[i].q.Len()
	}
	return total
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
		k, v, ok := q.extractOne(c)
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
