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
// never fails while the queue is nonempty. NewBlocking returns a
// BlockingQueue, whose ExtractMax sleeps on an empty queue until an insert
// arrives or Close is called: the queue wrapped in the paper's §3.6 ticket
// ring, the one way to wait. A consumer that needs a deadline polls
// TryExtractMax instead.
//
// The queue is in-memory. Open builds a durable one: a DurableQueue, the
// sharded front-end over one shard, which keeps a write-ahead log in
// Config.Durability.Dir and recovers it on every open; New refuses a config
// that sets Durability.
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
	"repro/internal/sharded"
	"repro/internal/waitring"
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
type LockKind = core.LockKind

// Lock implementations: the standard library mutex, a test-and-set
// trylock, and a test-and-test-and-set trylock (the recommended default).
const (
	LockStd   LockKind = core.LockStd
	LockTAS   LockKind = core.LockTAS
	LockTATAS LockKind = core.LockTATAS
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
// configuration or one that sets Durability (Open builds durable queues).
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
// targetLen = 72, TATAS trylocks, list sets.
func DefaultConfig() Config { return core.DefaultConfig() }

// BlockingQueue is a Queue whose consumers can sleep: ExtractMax blocks
// while the queue is empty, and Insert and InsertBatch wake sleepers
// through the §3.6 dispersed futex ring. Close releases every sleeper. It
// has Insert, InsertBatch, ExtractMax, TryExtractMax, Len, Empty, Close,
// Closed and CloseAndDrain; every insert and Close must go through it.
type BlockingQueue[V any] = waitring.Queue[V]

// NewBlocking returns a BlockingQueue over a queue with DefaultConfig.
func NewBlocking[V any]() *BlockingQueue[V] {
	return waitring.New(core.New[V](core.DefaultConfig()))
}

// NewStrict returns a non-relaxed queue (batch = 0): every ExtractMax
// returns the true maximum, with mound-equivalent concurrency.
func NewStrict[V any]() *Queue[V] {
	cfg := core.DefaultConfig()
	cfg.Batch = 0
	return core.New[V](cfg)
}

// DurabilityConfig describes a write-ahead log: assign one to
// Config.Durability (with WAL set) and Open the config, and every insert and
// extract of the queue Open returns is logged through group-committed
// fsyncs. An operation is durable once a later DurableQueue.SyncWAL returns
// nil; see DESIGN.md §10 for the protocol. New refuses a config that sets
// Durability: Queue has no log.
type DurabilityConfig = core.DurabilityConfig

// DurableQueue is the queue Open returns: the sharded front-end over one
// shard, which owns the write-ahead log. It has Queue's Insert,
// TryExtractMax, InsertBatch, ExtractBatch, Drain, Len and Close, plus
// SyncWAL, CloseWAL and WALStats; it does not block.
type DurableQueue[V any] = sharded.Queue[V]

// RecoveredState describes what Open read back from a durability
// directory: the surviving key multiset, the snapshot watermark, and what
// a crash's torn tail cost. Live() == 0 is a fresh (or fully drained)
// directory.
type RecoveredState = wal.State

// DefaultGroupCommit is the recommended DurabilityConfig.GroupCommit
// interval.
const DefaultGroupCommit = wal.DefaultGroupCommit

// Durability configuration errors, matched with errors.Is against the
// error Open returns.
var (
	ErrDurabilityDir         = sharded.ErrDurabilityDir
	ErrDurabilityGroupCommit = sharded.ErrDurabilityGroupCommit
	ErrSnapshotWithoutWAL    = sharded.ErrSnapshotWithoutWAL
)

// Codec encodes element values for the write-ahead log: hand one to Open
// and every insert's value rides its log record (record format v2),
// recovering byte-exact after a crash. Without one the queue writes
// key-only v1 records — bit-identical to the pre-payload format — and
// recovery restores zero values.
type Codec[V any] = wal.Codec[V]

// BytesCodec is the identity Codec for Queue[[]byte].
type BytesCodec = wal.BytesCodec

// Open is the one way to a durable queue: it opens cfg as a one-shard
// DurableQueue, returning errors instead of panicking. With
// Config.Durability.WAL set it always recovers first: whatever
// cfg.Durability.Dir durably holds — nothing, for a new directory — is
// re-inserted and the reopened log attached, so new operations continue the
// sequence; the returned state says what came back. With a codec the
// recovered queue holds the same (key, value) pairs the last one had durably
// acknowledged; with nil, values are not logged and a directory that carries
// value payloads is rejected rather than stripped. Call DurableQueue.CloseWAL
// after the final drain. Without durability in cfg the queue is volatile and
// the state is nil.
func Open[V any](cfg Config, codec Codec[V]) (*DurableQueue[V], *RecoveredState, error) {
	return sharded.Open(sharded.Config{Shards: 1, Queue: cfg}, sharded.Options[V]{Codec: codec})
}
