// Package core implements ZMSQ, the relaxed concurrent priority queue of
// Zhou, Michael and Spear (ICPP 2019).
//
// ZMSQ stores elements in a binary tree of TNodes. Each TNode holds a small
// set of elements plus atomically-readable cached metadata (max and
// count). The tree maintains the mound invariant — a parent's maximum is at
// least as large as either child's maximum — so the globally largest
// element is always at the root. Relaxation comes from an extraction pool:
// an extraction that finds the pool empty locks the root, takes the maximum
// for itself, and moves the next `batch` largest root elements into the
// pool, where subsequent extractions claim them with a single
// fetch-and-decrement. With batch = 0 the queue is strict.
//
// Distinguishing practical features (paper §1): extraction is guaranteed to
// succeed whenever the queue is nonempty; consumers can block on an empty
// queue; memory safety does not depend on the garbage collector; and
// relaxation accuracy is governed solely by `batch`, independent of the
// number of threads. The second composes from outside: package waitring
// wraps a Queue in the §3.6 ticket ring, and this package declares nothing
// about waiting. In Go the third needs no protocol: a set's run buffer is
// only read or written under its TNode's lock, so a freed buffer is reused
// at once (AllocDomain). The paper's hazard pointers (§3.5) plug in from
// outside through AllocDomain's Reclaimer, for the cells that measure what
// they cost.
//
// Each TNode holds its lock and its set inline: the lock is one of the
// three kinds §4.1 compares (Config.Lock), chosen per queue and dispatched
// on a kind byte, and the set is one slice: a sorted run, or in
// SetModeArray Fig. 5's unsorted array, the operation's context telling
// which once per set call. A node, its lock and its set's slice header
// are one 64-byte object.
//
// The queue owns no goroutine: this package has no go statement. The §5
// helper is one exported pass, Queue.HelperPass, which a caller drives on
// a schedule of its choosing.
//
// The queue is in-memory, as the paper's is: this package has no log and
// does not import internal/wal. Durability belongs to the sharded
// front-end (package sharded), which logs at its own operation boundaries;
// Open refuses a Config that sets Durability.
package core

import "fmt"

// Faults is the queue's fault-injection seam: one method per site that
// chaos testing perturbs. The queue consults it only where Config.Faults
// is non-nil.
type Faults interface {
	// FailTryLock reports whether a TNode trylock acquisition is forced
	// to fail, as if the lock had been lost to a racing holder.
	FailTryLock() bool
	// StallPoolHandoff runs between a pool claim's read of its slot and
	// the release of the slot to refillers: a lagging consumer.
	StallPoolHandoff()
	// StallTreeGrow runs between expandTree's decision to grow and the
	// publication of the new level.
	StallTreeGrow()
}

// DefaultBatch and DefaultTargetLen are the static configuration the paper
// recommends as a default (§4.2: "We recommend the static (batch=48,
// targetLen=72) configuration as the default setting").
const (
	DefaultBatch     = 48
	DefaultTargetLen = 72
)

// SetMode selects the per-TNode set implementation. It is read once, at
// construction.
type SetMode int

const (
	// SetModeList (the zero value) selects the mound-style sorted list,
	// held as one sorted run per set that holds the element-per-node
	// list's exact order.
	SetModeList SetMode = iota
	// SetModeArray selects the unsorted fixed-capacity array set (the
	// "(array)" curves in the paper's figures; no run buffers, so nothing
	// to reclaim).
	SetModeArray
)

// String returns "list" or "array".
func (m SetMode) String() string {
	switch m {
	case SetModeList:
		return "list"
	case SetModeArray:
		return "array"
	default:
		return fmt.Sprintf("SetMode(%d)", int(m))
	}
}

// LockKind selects the per-TNode lock (§4.1, Fig. 2). It is read once, at
// construction; every node of a queue holds a lock of the same kind.
type LockKind uint8

const (
	// LockStd (the zero value) is the standard library sync.Mutex, a
	// sleeping lock.
	LockStd LockKind = iota
	// LockTAS is a test-and-set spinlock: every acquire attempt is an
	// atomic exchange, which always invalidates the cache line.
	LockTAS
	// LockTATAS is a test-and-test-and-set spinlock: an acquire spins on a
	// plain load until the lock appears free, then attempts the exchange.
	// Under contention this keeps the line shared between attempts.
	LockTATAS
)

// String returns "std", "tas" or "tatas".
func (k LockKind) String() string {
	switch k {
	case LockStd:
		return "std"
	case LockTAS:
		return "tas"
	case LockTATAS:
		return "tatas"
	default:
		return fmt.Sprintf("LockKind(%d)", int(k))
	}
}

// Config selects a ZMSQ variant. The zero value is NOT the recommended
// configuration — a zero Batch means a strict (mound-equivalent) queue;
// call DefaultConfig for the paper's recommended settings.
type Config struct {
	// Batch bounds how many elements (beyond the one returned to the
	// refilling caller) one pool refill moves out of the root. It is also
	// the accuracy knob: the true maximum is returned at least once per
	// Batch+1 consecutive extractions. Batch = 0 disables the pool
	// entirely, making every extraction strict.
	Batch int

	// TargetLen is the number of elements each TNode tries to hold. A set
	// may hold at most 2×TargetLen elements before it is split into its
	// children. If zero, DefaultTargetLen is used.
	TargetLen int

	// Lock selects the per-TNode lock (§4.1), held inline in each node.
	// The default (zero value) is LockStd; the paper's best performer is
	// a TATAS trylock.
	Lock LockKind

	// NoTryLock disables the insert path's trylock-and-retry-elsewhere
	// optimization (§4.1); inserts then block on node locks instead of
	// restarting along a different random path.
	NoTryLock bool

	// SetMode selects the per-TNode set implementation: sorted lists (the
	// zero value) or SetModeArray.
	SetMode SetMode

	// NoMinSwap disables the insertion-quality optimization that moves a
	// parent's minimum down into the child when inserting a new child
	// maximum (§3.2). Exposed for ablation benchmarks.
	NoMinSwap bool

	// NoForcedInsert disables non-max insertion into under-full deep leaves
	// (§3.2). Exposed for ablation benchmarks.
	NoForcedInsert bool

	// Seed seeds the per-operation random number generators. Zero means a
	// fixed default seed; runs with equal seeds and a single goroutine are
	// deterministic.
	Seed uint64

	// Metrics, when non-nil, receives hot-path instrumentation: insert and
	// extraction outcome counters, refill/batch-size histograms, allocator
	// hit rates, trylock contention, and a sampled rank-error estimate of
	// live quality. nil (the default) compiles every instrumentation site
	// down to a single predictable branch; enabled, the cost is an atomic
	// add on a context-private cache line (see internal/metrics and the
	// CI overhead gate). Read it through Queue.Snapshot.
	Metrics *Metrics

	// Faults, when non-nil, injects faults at the queue's riskiest
	// synchronization surfaces (see the Faults interface). For chaos
	// testing only (internal/fault's Injector implements it); nil, the
	// default, costs one predictable branch per site.
	Faults Faults

	// Durability is read by sharded.Open, which owns the write-ahead log
	// a durable queue logs through (see DurabilityConfig). This package's
	// queue has no log: Open refuses a config that sets the field, and a
	// durable single queue is a one-shard sharded queue.
	Durability *DurabilityConfig
}

// Validate reports a descriptive error for nonsensical configurations
// instead of letting them surface as silent clamping or a panic deep in a
// subsystem. Zero values are always valid (they select defaults). New
// calls Validate and panics on error; callers constructing configs from
// external input should call it themselves first.
func (c Config) Validate() error {
	if c.Batch < 0 {
		return fmt.Errorf("zmsq: Config.Batch is %d; it must be >= 0 (0 disables the extraction pool)", c.Batch)
	}
	if c.TargetLen < 0 {
		return fmt.Errorf("zmsq: Config.TargetLen is %d; it must be >= 0 (0 selects the default %d)", c.TargetLen, DefaultTargetLen)
	}
	switch c.Lock {
	case LockStd, LockTAS, LockTATAS:
	default:
		return fmt.Errorf("zmsq: Config.Lock is unknown kind %d; valid kinds are std(0), tas(1), tatas(2)", int(c.Lock))
	}
	switch c.SetMode {
	case SetModeList, SetModeArray:
	default:
		return fmt.Errorf("zmsq: Config.SetMode is unknown mode %d; valid modes are list(0), array(1)", int(c.SetMode))
	}
	return nil
}

// arraySet is the internal shorthand for SetMode == SetModeArray.
func (c Config) arraySet() bool { return c.SetMode == SetModeArray }

// DefaultConfig returns the paper's recommended configuration: batch = 48,
// targetLen = 72, TATAS trylocks, list sets. Config.SetMode selects array
// sets.
func DefaultConfig() Config {
	return Config{
		Batch:     DefaultBatch,
		TargetLen: DefaultTargetLen,
		Lock:      LockTATAS,
	}
}

// withDefaults fills unset fields that have non-zero defaults. Nonsensical
// values are rejected by Validate before this runs; withDefaults only maps
// zero ("unset") to the documented defaults.
func (c Config) withDefaults() Config {
	if c.TargetLen == 0 {
		c.TargetLen = DefaultTargetLen
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed5eed5eed5eed
	}
	return c
}
