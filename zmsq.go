// Package repro is a from-scratch Go reproduction of "A Practical,
// Scalable, Relaxed Priority Queue" (Zhou, Michael, Spear — ICPP 2019),
// the ZMSQ algorithm that ships in Facebook Folly as
// RelaxedConcurrentPriorityQueue.
//
// The root package is the public facade over internal/core: a generic
// concurrent max-priority queue with tunable relaxation.
//
//	q := repro.New[string](repro.DefaultConfig())
//	q.Insert(10, "low")
//	q.Insert(99, "high")
//	k, v, ok := q.TryExtractMax() // 99, "high", true
//
// The queue's relaxation contract: with Config.Batch = b, the true maximum
// is returned at least once in any b+1 consecutive extractions, and
// k·(b+1) extractions return the top k elements — independent of how many
// goroutines are operating. With b = 0 the queue is strict. Extraction
// never fails while the queue is nonempty; with Config.Blocking set,
// ExtractMax sleeps on an empty queue until an insert arrives or Close is
// called. That is the queue's one way to wait, the paper's §3.6 ticket
// ring; a consumer that needs a deadline polls TryExtractMax instead.
//
// For bulk workloads, InsertBatch and ExtractBatch amortize per-operation
// overhead (context acquisition, pool-slot handoff, root-lock traffic)
// across a whole batch while observing the same relaxation contract as the
// equivalent sequence of single-element calls. The steady-state hot paths
// are allocation-free: set nodes recycle through per-context free stacks
// and a shared freelist, and all transient buffers live in pooled
// per-operation contexts. A freed set node is reused at once, because no
// optimistic reader ever holds one (DESIGN.md §5); the paper's hazard
// pointers (§3.5) run only in the experiment harness's memory-safe cells,
// which measure what the protocol costs.
//
// The repository also contains the paper's baselines (mound, SprayList,
// MultiQueue), the experiment harness that regenerates every table and
// figure of the evaluation (see DESIGN.md and EXPERIMENTS.md), and
// runnable examples under examples/.
package repro

import (
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/wal"
)

// Queue is a ZMSQ relaxed concurrent priority queue holding (uint64, V)
// pairs; larger keys have higher priority. All methods are safe for
// concurrent use. See the package documentation for the relaxation
// contract.
type Queue[V any] = core.Queue[V]

// Config selects a queue variant; see DefaultConfig and the field
// documentation.
type Config = core.Config

// TreeStats is a diagnostic snapshot of the queue's internal tree shape.
type TreeStats = core.TreeStats

// Metrics is the hot-path instrumentation hook. Attach one via
// Config.Metrics (see NewMetrics) and read it through Queue.Snapshot; with
// the field nil — the default — instrumentation costs one predictable
// branch per site and the hot paths stay allocation-free either way.
type Metrics = core.Metrics

// MetricsSnapshot is a merged, point-in-time view of a queue's Metrics
// plus instantaneous gauges, produced by Queue.Snapshot. It serializes to
// JSON and renders Prometheus text via WritePrometheus.
type MetricsSnapshot = core.MetricsSnapshot

// Element is one key/value pair returned by Queue.Drain and
// Queue.CloseAndDrain.
type Element[V any] = core.Element[V]

// LockKind selects the per-node lock implementation (§4.1 of the paper).
type LockKind = locks.Kind

// Lock implementations: the standard library mutex, a test-and-set
// trylock, and a test-and-test-and-set trylock (the recommended default).
const (
	LockStd   LockKind = locks.Std
	LockTAS   LockKind = locks.TAS
	LockTATAS LockKind = locks.TATAS
)

// SetMode selects the per-node set implementation (Config.SetMode):
// sorted lists, the default, stored as doubly linked blocks of 16
// elements in the order a list of one element per node would hold, or
// the paper's "(array)" variant.
type SetMode = core.SetMode

const (
	SetModeList  SetMode = core.SetModeList
	SetModeArray SetMode = core.SetModeArray
)

// DefaultBatch and DefaultTargetLen are the paper's recommended tuning
// (§4.2).
const (
	DefaultBatch     = core.DefaultBatch
	DefaultTargetLen = core.DefaultTargetLen
)

// New returns an empty queue configured by cfg, panicking on an invalid
// configuration; Open returns the error instead.
func New[V any](cfg Config) *Queue[V] { return core.New[V](cfg) }

// NewMetrics returns a Metrics ready to assign to Config.Metrics:
//
//	cfg := repro.DefaultConfig()
//	cfg.Metrics = repro.NewMetrics()
//	q := repro.New[string](cfg)
//	...
//	snap := q.Snapshot() // counters, histograms, gauges
func NewMetrics() *Metrics { return core.NewMetrics() }

// DefaultConfig returns the paper's recommended configuration: batch = 48,
// targetLen = 72, TATAS trylocks, list sets, blocking disabled.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewBlocking returns a queue with the §3.6 blocking mechanism enabled:
// ExtractMax sleeps while the queue is empty and Insert wakes sleeping
// consumers through a dispersed futex ring.
func NewBlocking[V any]() *Queue[V] {
	cfg := core.DefaultConfig()
	cfg.Blocking = true
	return core.New[V](cfg)
}

// NewStrict returns a non-relaxed queue (batch = 0): every ExtractMax
// returns the true maximum, with mound-equivalent concurrency.
func NewStrict[V any]() *Queue[V] {
	cfg := core.DefaultConfig()
	cfg.Batch = 0
	return core.New[V](cfg)
}

// DurabilityConfig asks the queue to own a write-ahead log: assign one to
// Config.Durability (with WAL set) and every insert and extract is logged
// through group-committed fsyncs. An operation is durable once a later
// Queue.SyncWAL returns nil; see DESIGN.md §10 for the protocol.
type DurabilityConfig = core.DurabilityConfig

// RecoveredState describes what Open read back from a durability
// directory: the surviving key multiset, the snapshot watermark, and what
// a crash's torn tail cost. Live() == 0 is a fresh (or fully drained)
// directory.
type RecoveredState = wal.State

// DefaultGroupCommit is the recommended DurabilityConfig.GroupCommit
// interval.
const DefaultGroupCommit = wal.DefaultGroupCommit

// Durability configuration errors, matched with errors.Is against the
// error Config.Validate (and Open) returns.
var (
	ErrDurabilityDir         = core.ErrDurabilityDir
	ErrDurabilityGroupCommit = core.ErrDurabilityGroupCommit
	ErrSnapshotWithoutWAL    = core.ErrSnapshotWithoutWAL
	ErrDurabilityConflict    = core.ErrDurabilityConflict
)

// Codec encodes element values for the write-ahead log: hand one to Open
// and every insert's value rides its log record (record format v2),
// recovering byte-exact after a crash. Without one the queue writes
// key-only v1 records — bit-identical to the pre-payload format — and
// recovery restores zero values.
type Codec[V any] = wal.Codec[V]

// BytesCodec is the identity Codec for Queue[[]byte].
type BytesCodec = wal.BytesCodec

// Open is New with errors instead of panics, and the one way to a durable
// queue. With Config.Durability.WAL set it always recovers first: whatever
// cfg.Durability.Dir durably holds — nothing, for a new directory — is
// re-inserted and the reopened log attached, so new operations continue the
// sequence; the returned state says what came back. With a codec the
// recovered queue holds the same (key, value) pairs the last one had durably
// acknowledged; with nil, values are not logged and a directory that carries
// value payloads is rejected rather than stripped. Call Queue.CloseWAL after
// the final drain. Without durability in cfg the state is nil.
func Open[V any](cfg Config, codec Codec[V]) (*Queue[V], *RecoveredState, error) {
	return core.Open(cfg, core.Options[V]{Codec: codec})
}
