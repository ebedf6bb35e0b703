// Package contract checks ZMSQ's robustness contracts against a recorded
// concurrent operation history. Two of the paper's headline claims are
// verified:
//
//   - The b+1 relaxation guarantee (§1, §3.3): with Batch = b, the true
//     maximum is returned at least once in any b+1 consecutive
//     extractions. Note this is a window property, not a per-extraction
//     rank bound: a pool refill copies the top of the root's *list*, and
//     the mound invariant only orders node maxima, so a pool claim's
//     global rank is unbounded by design. The checker therefore reports
//     per-extraction ranks (MaxStrictRank, TopFrac) as diagnostics and
//     flags only window violations.
//   - Extraction never fails on a nonempty queue (§3.7): a TryExtractMax
//     that returns ok=false must have observed a genuinely empty queue.
//
// Recording is designed to stay out of the queue's way: each worker
// goroutine owns a Recorder that appends to a private buffer; the only
// shared-write traffic per operation is one or two atomic counter bumps.
// Verification is post-hoc and single-threaded — Verify merges the
// buffers by a global sequence stamp and replays them against an exact
// order-statistics multiset.
//
// # Soundness under concurrency
//
// The recorded order is the order in which workers *stamped* events, which
// can differ from the linearization order by at most the number of
// concurrently in-flight operations. The checker takes a Slack parameter:
// the "true max" test becomes rank <= Slack and the window bound becomes
// Batch+Slack, absorbing bounded reorder. With a single strict consumer
// and quiescent producers the recorded order IS the real order, so Slack
// = 0 makes the window check exact — which is how the chaos harness runs
// its strict sections. Insert events are stamped *before* the physical
// insert and extraction events *after* the physical removal, so an
// extraction can never precede its element's insertion in the merged
// history. The strict b+1 checks are only applied to extractions recorded
// inside a Strict section, which the harness enters once producers are
// quiescent.
//
// The never-fails check is made sound the same way: a failed extraction
// is a violation only if the inserts completed *before the attempt began*
// minus the worst-case number of removals (completed successful
// extractions plus every other in-flight extraction) is still positive —
// a lower bound on the queue's size at the moment the attempt observed
// emptiness. Inserts completing between that observation and the
// failure's recording must not count, which is why the insert counter is
// snapshotted in WillExtract rather than loaded in DidExtract.
package contract

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/quality"
)

// Config tunes a Checker.
type Config struct {
	// Batch is the queue's relaxation knob b: the true max must appear at
	// least once per Batch+1 consecutive extractions (in strict sections,
	// modulo Slack).
	Batch int
	// Shards is the sharded front-end's shard count S; 0 or 1 means a
	// single queue. The composed window bound is S·(Batch+1): a strict
	// single consumer sweeps all shards at least once per S extractions
	// (internal/sharded's periodic full peek-sweep), and the shard holding
	// the true max must surface it within its own Batch+1 window, so the
	// true max appears at least once per S·(Batch+1) consecutive
	// extractions. With S <= 1 this degenerates to the plain Batch+1
	// window.
	//
	// Shards > 1 also disables the never-fails check: a sharded empty
	// observation is a sweep over the shards, not an atomic cut, so an
	// insert landing on an already-swept shard can legitimately make a
	// nonempty queue report empty. §3.7 never-fails holds per shard only.
	Shards int
	// Slack widens the true-max test (rank <= Slack) and the window bound
	// to absorb recording reorder from concurrent strict consumers; 0 is
	// exact for a single strict consumer.
	Slack int
	// MaxViolations bounds how many violation messages are retained
	// verbatim (the count is always exact). Zero selects 16.
	MaxViolations int
}

// windowBound is the longest permitted run of consecutive strict
// extractions that all miss the true max: S·(Batch+1) - 1 plus Slack.
func (cfg Config) windowBound() int {
	s := cfg.Shards
	if s < 1 {
		s = 1
	}
	return s*(cfg.Batch+1) - 1 + cfg.Slack
}

type eventKind uint8

const (
	evInsert eventKind = iota
	evExtract
)

// event is one recorded operation. phase is 0 outside strict sections and
// the strict-section id inside one.
type event struct {
	seq   uint64
	key   uint64
	phase uint32
	kind  eventKind
}

// Checker accumulates a history and verifies it. Methods on Checker are
// safe for concurrent use; each worker goroutine must use its own
// Recorder.
type Checker struct {
	cfg Config

	seq      atomic.Uint64
	phase    atomic.Uint32
	phaseCtr atomic.Uint32

	// Counters backing the never-fails lower bound.
	insertedDone   atomic.Int64
	extractStarted atomic.Int64
	extractDoneAll atomic.Int64
	extractOK      atomic.Int64

	failedExtracts atomic.Int64

	mu         sync.Mutex
	recorders  []*Recorder
	violations []string
	nviolation int64
}

// NewChecker returns an empty checker.
func NewChecker(cfg Config) *Checker {
	if cfg.MaxViolations == 0 {
		cfg.MaxViolations = 16
	}
	return &Checker{cfg: cfg}
}

// Recorder returns a new per-goroutine recorder. Recorders are not safe
// for concurrent use with themselves; create one per worker.
func (c *Checker) Recorder() *Recorder {
	r := &Recorder{c: c}
	c.mu.Lock()
	c.recorders = append(c.recorders, r)
	c.mu.Unlock()
	return r
}

// BeginStrict opens a strict section: extractions recorded until EndStrict
// are subject to the exact (modulo Slack) b+1 checks. Call it only while
// no producer is running; concurrent consumers are fine.
func (c *Checker) BeginStrict() {
	c.phase.Store(c.phaseCtr.Add(1))
}

// EndStrict closes the current strict section.
func (c *Checker) EndStrict() {
	c.phase.Store(0)
}

func (c *Checker) violate(format string, args ...any) {
	c.mu.Lock()
	c.nviolation++
	if len(c.violations) < c.cfg.MaxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// Recorder is one worker's recording handle.
type Recorder struct {
	c      *Checker
	events []event
	// insertedAtWill snapshots insertedDone at WillExtract: inserts counted
	// there completed before the extraction attempt began, so they were
	// physically present when the attempt observed the queue.
	insertedAtWill int64
}

// WillInsert must be called immediately before the corresponding queue
// insert of key; it stamps the insert into the history so that no
// extraction of the element can be ordered before it.
func (r *Recorder) WillInsert(key uint64) {
	c := r.c
	r.events = append(r.events, event{
		seq:   c.seq.Add(1),
		key:   key,
		phase: c.phase.Load(),
		kind:  evInsert,
	})
}

// DidInsert must be called immediately after the queue insert returns; it
// makes the element count toward the never-fails lower bound.
func (r *Recorder) DidInsert() {
	r.c.insertedDone.Add(1)
}

// WillExtract must be called immediately before an extraction attempt.
func (r *Recorder) WillExtract() {
	r.insertedAtWill = r.c.insertedDone.Load()
	r.c.extractStarted.Add(1)
}

// DidExtract must be called immediately after the extraction attempt
// returns, with its result. A failed attempt is checked on the spot
// against the never-fails contract.
func (r *Recorder) DidExtract(key uint64, ok bool) {
	c := r.c
	if ok {
		r.events = append(r.events, event{
			seq:   c.seq.Add(1),
			key:   key,
			phase: c.phase.Load(),
			kind:  evExtract,
		})
		c.extractOK.Add(1)
		c.extractDoneAll.Add(1)
		return
	}
	c.failedExtracts.Add(1)
	if c.cfg.Shards > 1 {
		// Sharded front-ends observe emptiness by sweeping the shards —
		// not an atomic cut — so the lower-bound argument below is unsound
		// for them (see Config.Shards). Count the failure, don't judge it.
		c.extractDoneAll.Add(1)
		return
	}
	// Soundness. The insert side must not over-count: the attempt observed
	// emptiness at some instant between WillExtract and now, so only the
	// inserts completed by WillExtract (the snapshot below) provably
	// preceded the observation. The removal side must over-count: every
	// physical removal by the observation belongs to an operation that has
	// either already bumped extractOK (loading extractOK LAST catches it)
	// or is still in flight (started but not done; loading doneAll EARLY
	// and started after it over-counts those). An operation caught by both
	// terms only makes the bound more conservative.
	inserted := r.insertedAtWill
	doneAll := c.extractDoneAll.Load()
	started := c.extractStarted.Load()
	okDone := c.extractOK.Load()
	inflightOthers := started - doneAll - 1 // excluding this attempt
	if inflightOthers < 0 {
		inflightOthers = 0
	}
	if lower := inserted - okDone - inflightOthers; lower > 0 {
		c.violate("extraction failed with queue provably nonempty (>= %d elements: %d inserted, %d extracted, %d in flight)",
			lower, inserted, okDone, inflightOthers)
	}
	c.extractDoneAll.Add(1)
}

// Report summarizes a verified history.
type Report struct {
	// Inserts and Extracts count recorded operations; FailedExtracts
	// counts extraction attempts that returned ok=false.
	Inserts, Extracts, FailedExtracts int
	// Remaining is the size of the replayed multiset after the full
	// history — elements inserted but never extracted.
	Remaining int
	// StrictExtracts counts extractions inside strict sections.
	StrictExtracts int
	// MaxStrictRank is the worst observed rank-from-top among strict
	// extractions (0 = every strict extraction returned the true max). It
	// is a diagnostic, not a bound: pool claims have unbounded rank by
	// design (see the package comment).
	MaxStrictRank int
	// TopFrac is the fraction of strict extractions with rank <= Slack
	// ("returned the true max", exactly so when Slack = 0).
	TopFrac float64
	// WorstRun is the longest run of consecutive strict extractions whose
	// rank exceeded Slack; the (possibly sharded) window contract requires
	// WorstRun <= S·(Batch+1) - 1 + Slack.
	WorstRun int
	// Violations holds up to MaxViolations messages; ViolationCount is
	// exact.
	Violations     []string
	ViolationCount int64
}

// Verify merges and replays the recorded history, returning a report and
// a non-nil error if any contract was violated. It must only be called
// while all recorders are quiescent.
func (c *Checker) Verify() (Report, error) {
	c.mu.Lock()
	var all []event
	for _, r := range c.recorders {
		all = append(all, r.events...)
	}
	c.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })

	live := quality.NewTreap(0x5eed)
	rep := Report{FailedExtracts: int(c.failedExtracts.Load())}
	bound := c.cfg.windowBound()
	var topHits, run int
	lastPhase := uint32(0)
	for _, e := range all {
		switch e.kind {
		case evInsert:
			rep.Inserts++
			live.Insert(e.key)
		case evExtract:
			rep.Extracts++
			rank, okRank := live.RankFromTop(e.key)
			if !okRank {
				c.violate("extracted key %d not present: never inserted or extracted twice", e.key)
				continue
			}
			live.Delete(e.key)
			if e.phase == 0 {
				continue
			}
			if e.phase != lastPhase {
				run = 0 // window runs do not span strict sections
				lastPhase = e.phase
			}
			rep.StrictExtracts++
			if rank > rep.MaxStrictRank {
				rep.MaxStrictRank = rank
			}
			if rank <= c.cfg.Slack {
				topHits++
				run = 0
			} else {
				run++
				if run > rep.WorstRun {
					rep.WorstRun = run
				}
				if run == bound+1 {
					// Report once per offending window, at the point the
					// window guarantee is first exceeded.
					c.violate("no true-max extraction in %d consecutive strict extractions (allowed %d: batch %d, shards %d, slack %d)",
						run, bound, c.cfg.Batch, c.cfg.Shards, c.cfg.Slack)
				}
			}
		}
	}
	rep.Remaining = live.Len()
	if rep.StrictExtracts > 0 {
		rep.TopFrac = float64(topHits) / float64(rep.StrictExtracts)
	}

	c.mu.Lock()
	rep.Violations = append([]string(nil), c.violations...)
	rep.ViolationCount = c.nviolation
	c.mu.Unlock()
	if rep.ViolationCount > 0 {
		return rep, fmt.Errorf("contract: %d violation(s); first: %s", rep.ViolationCount, rep.Violations[0])
	}
	return rep, nil
}
