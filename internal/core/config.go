// Package core implements ZMSQ, the relaxed concurrent priority queue of
// Zhou, Michael and Spear (ICPP 2019).
//
// ZMSQ stores elements in a binary tree of TNodes. Each TNode holds a small
// set of elements plus atomically-readable cached metadata (max, min,
// count). The tree maintains the mound invariant — a parent's maximum is at
// least as large as either child's maximum — so the globally largest
// element is always at the root. Relaxation comes from an extraction pool:
// an ExtractMax that finds the pool empty locks the root, takes the maximum
// for itself, and moves the next `batch` largest root elements into the
// pool, where subsequent ExtractMax calls claim them with a single
// fetch-and-decrement. With batch = 0 the queue is strict.
//
// Distinguishing practical features (paper §1): extraction is guaranteed to
// succeed whenever the queue is nonempty; consumers can block on an empty
// queue (Config.Blocking); memory safety does not depend on the garbage
// collector (a hazard-pointer domain gates the reuse of set nodes — see
// Config.Leaky); and relaxation accuracy is governed solely by `batch`,
// independent of the number of threads.
package core

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/locks"
)

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
	// SetModeList (the zero value) selects the mound-style sorted doubly
	// linked list (memory-safe via hazard pointers unless Config.Leaky).
	SetModeList SetMode = iota
	// SetModeArray selects the unsorted fixed-capacity array set (the
	// "(array)" curves in the paper's figures; no lnodes, so nothing to
	// reclaim).
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

// Config selects a ZMSQ variant. The zero value is NOT the recommended
// configuration — a zero Batch means a strict (mound-equivalent) queue;
// call DefaultConfig for the paper's recommended settings.
type Config struct {
	// Batch bounds how many elements (beyond the one returned to the
	// refilling caller) one pool refill moves out of the root. It is also
	// the accuracy knob: the true maximum is returned at least once per
	// Batch+1 consecutive ExtractMax calls. Batch = 0 disables the pool
	// entirely, making every ExtractMax strict.
	Batch int

	// TargetLen is the number of elements each TNode tries to hold. A set
	// may hold at most 2×TargetLen elements before it is split into its
	// children. If zero, DefaultTargetLen is used.
	TargetLen int

	// Lock selects the per-TNode lock implementation (§4.1). The default
	// (zero value) is locks.Std; the paper's best performer is a TATAS
	// trylock.
	Lock locks.Kind

	// NoTryLock disables the insert path's trylock-and-retry-elsewhere
	// optimization (§4.1); inserts then block on node locks instead of
	// restarting along a different random path.
	NoTryLock bool

	// SetMode selects the per-TNode set implementation: sorted lists (the
	// zero value) or SetModeArray.
	SetMode SetMode

	// Leaky disables the hazard-pointer protocol, mirroring the paper's
	// "ZMSQ (leak)" configuration: set nodes are allocated fresh and left
	// to the garbage collector rather than being retired through the
	// hazard-pointer domain into a reuse pool. Use it to measure the cost
	// of the memory-safety protocol.
	Leaky bool

	// Blocking enables the §3.6 futex-ring blocking mechanism: ExtractMax
	// sleeps when the queue is empty and Insert wakes sleepers. When false,
	// ExtractMax behaves like TryExtractMax.
	Blocking bool

	// RingSize is the number of slots in the blocking ring (rounded up to a
	// power of two; zero selects waitring.DefaultSlots).
	RingSize int

	// NoMinSwap disables the insertion-quality optimization that moves a
	// parent's minimum down into the child when inserting a new child
	// maximum (§3.2). Exposed for ablation benchmarks.
	NoMinSwap bool

	// NoForcedInsert disables non-max insertion into under-full deep leaves
	// (§3.2). Exposed for ablation benchmarks.
	NoForcedInsert bool

	// Helper enables the §5 future-work maintenance goroutine, which
	// refills under-full non-leaf sets by pulling elements up from their
	// children (see helper.go). Stopped by Close.
	Helper bool

	// HelperInterval is the pause between helper passes (zero selects
	// 200µs).
	HelperInterval time.Duration

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

	// Faults, when non-nil, injects deterministic faults at the queue's
	// riskiest synchronization surfaces: TNode trylock acquisition,
	// pool-slot handoff, hazard-pointer reclamation scans, tree growth,
	// and (with durability on) the WAL crash points. For chaos testing
	// only — nil (the default) compiles the hooks down to a single
	// predictable branch per site.
	Faults *fault.Injector

	// Durability, when non-nil with WAL set, makes the queue own a
	// write-ahead log: Open recovers what Durability.Dir holds and opens
	// the log there, every mutation is logged (inserts before visibility,
	// extracts after removal), SyncWAL is the acknowledgement point, and
	// CloseWAL closes the log after the final drain. nil keeps the queue
	// purely in-memory with the hot paths at 0 allocs/op.
	Durability *DurabilityConfig

	// WAL attaches an externally owned durability policy instead of a
	// queue-owned log: the queue appends through it but CloseWAL only
	// syncs — whoever built the policy closes it. The sharded front-end
	// threads one shared *wal.Log through all its shards this way.
	// Mutually exclusive with Durability.WAL.
	WAL WALPolicy
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
	if c.RingSize < 0 {
		return fmt.Errorf("zmsq: Config.RingSize is %d; it must be >= 0 (0 selects the default ring size)", c.RingSize)
	}
	if c.HelperInterval < 0 {
		return fmt.Errorf("zmsq: Config.HelperInterval is %v; it must be >= 0 (0 selects the default)", c.HelperInterval)
	}
	switch c.Lock {
	case locks.Std, locks.TAS, locks.TATAS:
	default:
		return fmt.Errorf("zmsq: Config.Lock is unknown kind %d; valid kinds are %v", int(c.Lock), locks.Kinds())
	}
	switch c.SetMode {
	case SetModeList, SetModeArray:
	default:
		return fmt.Errorf("zmsq: Config.SetMode is unknown mode %d; valid modes are list(0), array(1)", int(c.SetMode))
	}
	return c.validateDurability()
}

// arraySet is the internal shorthand for SetMode == SetModeArray.
func (c Config) arraySet() bool { return c.SetMode == SetModeArray }

// DefaultConfig returns the paper's recommended configuration: batch = 48,
// targetLen = 72, TATAS trylocks, memory-safe list sets, blocking disabled.
// Config.SetMode selects array sets.
func DefaultConfig() Config {
	return Config{
		Batch:     DefaultBatch,
		TargetLen: DefaultTargetLen,
		Lock:      locks.TATAS,
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
	if c.HelperInterval <= 0 {
		c.HelperInterval = 200 * time.Microsecond
	}
	return c
}
