package harness

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pq"
	"repro/internal/sharded"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// This file is the chaos stress harness: it runs seeded fault schedules
// against ZMSQ (and, for comparison, the baseline queues) while the
// contract checker records every operation, and validates the queue's
// structural invariants between rounds.
//
// Each round has two phases. In the mixed phase, producers insert while
// consumers extract concurrently — with faults injected at the core
// synchronization surfaces (trylock acquisition, pool handoff, tree
// growth, and the hazard scans of a hazard-gated domain). In the strict
// phase producers are quiescent and a single consumer drains part of the
// queue under the contract checker's exact b+1 window accounting (faults
// still firing). After each round the workers quiesce and CheckInvariants
// must pass; at the end the queue is fully drained and the recorded
// history is verified (conservation, never-fails, b+1).

// ChaosPlan configures a chaos run.
type ChaosPlan struct {
	// Seed drives the fault schedule, the workload keys, and the queue's
	// internal RNGs; equal plans replay equal schedules.
	Seed uint64
	// Rounds is how many mixed+strict rounds to run.
	Rounds int
	// Producers and Consumers set the worker counts.
	Producers, Consumers int
	// OpsPerRound is the number of inserts per producer per round.
	OpsPerRound int
	// Faults is the injection schedule (zero = no injection).
	Faults fault.Plan
	// Queue is the ZMSQ configuration under test; its Seed and Faults
	// fields are overwritten by the plan's.
	Queue core.Config
	// Shards > 1 runs the schedule against the sharded front-end, faults
	// shared across shards; 0 or 1 against a single queue, or against one
	// shard when Durable is set (the log belongs to the front-end).
	Shards int
	// Keys selects the workload key distribution.
	Keys KeyDist
	// Durable, when set, runs the whole chaos schedule with a write-ahead
	// log attached (in WALDir): every insert and extract is logged while
	// the fault schedule fires, and after the final drain the durable
	// state must replay to empty — the on-disk ledger has to agree with
	// the in-memory conservation check.
	Durable bool
	// WALDir is the durability directory for Durable runs (required then).
	WALDir string
	// Helper runs the §5 helper (StartHelper) against the queue through
	// every phase, stopped for each structural check. It drives one core
	// queue: a plan that sets Shards > 1 or Durable cannot set it.
	Helper bool
}

func (p ChaosPlan) withDefaults() ChaosPlan {
	if p.Rounds <= 0 {
		p.Rounds = 4
	}
	if p.Producers <= 0 {
		p.Producers = 4
	}
	if p.Consumers <= 0 {
		p.Consumers = 4
	}
	if p.OpsPerRound <= 0 {
		p.OpsPerRound = 2000
	}
	return p
}

// chaosSnapshotBytes is the durable chaos run's snapshot threshold: small
// enough that the log passes it by the first group commit of a round, and
// a snapshot cycle then writes many chunks, rebases among them, while the
// fault schedules run.
const chaosSnapshotBytes = 4 << 10

// durability translates the plan's Durable/WALDir pair into the queue's
// durability configuration (nil when durability is off).
func (p ChaosPlan) durability() *core.DurabilityConfig {
	if !p.Durable {
		return nil
	}
	return &core.DurabilityConfig{WAL: true, Dir: p.WALDir, GroupCommit: wal.DefaultGroupCommit, SnapshotBytes: chaosSnapshotBytes}
}

// verifyDurableEmpty replays the durable state after a full drain: every
// logged insert must have a logged extract, so the recovered multiset
// must be empty — the on-disk ledger's version of element conservation.
func verifyDurableEmpty(dir string) error {
	st, err := wal.Recover(dir)
	if err != nil {
		return fmt.Errorf("chaos durable: replaying the drained log: %w", err)
	}
	if st.Live() != 0 {
		return fmt.Errorf("chaos durable: %d keys remain in the durable state after a full drain", st.Live())
	}
	return nil
}

// ChaosResult summarizes a chaos run.
type ChaosResult struct {
	Name      string
	Rounds    int
	Inserted  int64
	Extracted int64
	// FailedExtracts counts extraction attempts that returned ok=false
	// (all of them legitimate if the run passed).
	FailedExtracts int
	// FaultCalls/FaultFired report per-point injection activity, keyed by
	// Point.String, for the points the run consulted: a point the queue
	// never reaches (HazardScan off a hazard-gated domain) has no entry.
	FaultCalls, FaultFired map[string]uint64
	// Report is the contract checker's summary.
	Report contract.Report
	// WAL is the log's activity summary for Durable runs (nil otherwise).
	WAL *wal.Stats
}

// RunChaos runs the full chaos schedule against the queue plan.Queue and
// plan.Shards describe, with fault injection and invariant validation. The
// returned error is non-nil if any invariant or contract was violated. For
// Shards > 1 the strict-phase window check uses the composed S·(Batch+1)
// bound (contract.Config.Shards), and the never-fails check is per-shard
// only — the checker skips it because a cross-shard empty observation is a
// sweep, not an atomic cut.
func RunChaos(plan ChaosPlan) (ChaosResult, error) { return runChaos(plan, false) }

// runChaos is RunChaos, over a NewHazardDomain if hazard is set: the
// paper's memory-safe ZMSQ, whose reclamation scans are the HazardScan
// fault point.
func runChaos(plan ChaosPlan, hazard bool) (ChaosResult, error) {
	plan = plan.withDefaults()
	if plan.Helper && (plan.Shards > 1 || plan.Durable) {
		return ChaosResult{}, errChaosHelper
	}
	inj := fault.New(plan.Seed, plan.Faults)
	cfg := plan.Queue
	cfg.Seed = plan.Seed
	cfg.Faults = inj
	cfg.Durability = plan.durability()
	var domain *core.AllocDomain[[]byte]
	if hazard {
		domain = NewHazardDomain[[]byte](cfg.Metrics, inj)
	}
	q, name, err := openTarget(plan.Shards, cfg, domain, hazard)
	if err != nil {
		return ChaosResult{Name: name}, err
	}
	defer q.Close()

	// The helper's passes mutate nodes under their locks while
	// CheckInvariants reads without them, so it stops for every check and
	// starts again after.
	startHelper, stopHelper := func() {}, func() int64 { return 0 }
	if plan.Helper {
		cq := q.(*core.Queue[[]byte])
		startHelper = func() { stopHelper = StartHelper(cq) }
		defer func() { stopHelper() }()
	}
	startHelper()

	// Slack 0: the strict phase below is single-consumer with producers
	// quiescent, so the recorded order is the real order and the window
	// check is exact.
	checker := contract.NewChecker(contract.Config{Batch: cfg.Batch, Shards: plan.Shards})
	res := ChaosResult{Name: name, Rounds: plan.Rounds}

	var inserted, extracted atomic.Int64
	extract := func(r *contract.Recorder) bool {
		r.WillExtract()
		k, _, ok := q.TryExtractMax()
		r.DidExtract(k, ok)
		if ok {
			extracted.Add(1)
		}
		return ok
	}

	// Mixed-phase consumers stop after roughly half the round's inserts so
	// the strict phase always finds a populated queue.
	mixedQuota := plan.Producers * plan.OpsPerRound / (2 * plan.Consumers)
	if mixedQuota < 1 {
		mixedQuota = 1
	}
	for round := 0; round < plan.Rounds; round++ {
		// Mixed phase: producers and consumers race under injected faults.
		var producersDone atomic.Bool
		var wg sync.WaitGroup
		for p := 0; p < plan.Producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rec := checker.Recorder()
				var rng xrand.Rand
				rng.Seed(xrand.Mix64(plan.Seed ^ uint64(round)<<32 ^ uint64(p+1)))
				for i := 0; i < plan.OpsPerRound; i++ {
					key := plan.Keys.Draw(&rng)
					rec.WillInsert(key)
					q.Insert(key, nil)
					rec.DidInsert()
					inserted.Add(1)
				}
			}(p)
		}
		var cwg sync.WaitGroup
		for c := 0; c < plan.Consumers; c++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				rec := checker.Recorder()
				for got := 0; got < mixedQuota; {
					if extract(rec) {
						got++
					} else if producersDone.Load() {
						return
					}
				}
			}()
		}
		wg.Wait()
		producersDone.Store(true)
		cwg.Wait()

		// Warm-up flush: every shard's pool may still hold elements
		// refilled mid-mixed-phase, whose ranks reflect that older state.
		// Drain one composed window non-strictly so the strict-phase
		// diagnostics (MaxStrictRank, TopFrac) start from freshly refilled
		// pools.
		warmRec := checker.Recorder()
		for i := 0; i < max(plan.Shards, 1)*(cfg.Batch+1); i++ {
			if !extract(warmRec) {
				break
			}
		}

		// Strict phase: producers quiescent and a single consumer, so the
		// recorded order is the real order and the window check is
		// exact. Faults keep firing — a forced trylock failure or handoff
		// stall must not be able to break the window guarantee.
		if quota := q.Len() / 2; quota > 0 {
			checker.BeginStrict()
			rec := checker.Recorder()
			for i := 0; i < quota; i++ {
				if !extract(rec) {
					break
				}
			}
			checker.EndStrict()
		}

		// Quiescent: the queue's structural invariants must hold exactly.
		stopHelper()
		if err := q.CheckInvariants(); err != nil {
			return res, fmt.Errorf("chaos(%s) round %d: %w", name, round, err)
		}
		startHelper()
	}

	// Final drain: everything inserted must come back out exactly once.
	rec := checker.Recorder()
	for extract(rec) {
	}
	stopHelper()
	q.Close() // idempotent with the deferred Close
	if err := q.CheckInvariants(); err != nil {
		return res, fmt.Errorf("chaos(%s) final drain: %w", name, err)
	}
	if plan.Durable {
		sq := q.(*sharded.Queue[[]byte]) // a durable plan opens the front-end
		if stats, ok := sq.WALStats(); ok {
			res.WAL = &stats
		}
		if err := sq.CloseWAL(); err != nil {
			return res, fmt.Errorf("chaos(%s) durable: closing WAL: %w", name, err)
		}
		if err := verifyDurableEmpty(plan.WALDir); err != nil {
			return res, err
		}
	}

	res.Inserted = inserted.Load()
	res.Extracted = extracted.Load()
	res.FaultCalls = make(map[string]uint64, fault.NumPoints)
	res.FaultFired = make(map[string]uint64, fault.NumPoints)
	for _, p := range fault.Points() {
		if calls := inj.Calls(p); calls > 0 {
			res.FaultCalls[p.String()] = calls
			res.FaultFired[p.String()] = inj.Fired(p)
		}
	}

	rep, err := checker.Verify()
	res.Report = rep
	res.FailedExtracts = rep.FailedExtracts
	if err != nil {
		return res, err
	}
	if rep.Remaining != 0 {
		return res, fmt.Errorf("chaos(%s): %d elements lost (inserted %d, extracted %d)",
			name, rep.Remaining, res.Inserted, res.Extracted)
	}
	return res, nil
}

// errChaosHelper refuses a plan that runs the helper against the sharded
// front-end.
var errChaosHelper = errors.New("chaos: Helper drives one core queue; it cannot be set with Shards > 1 or Durable")

// target is the queue surface the chaos harness needs; both
// core.Queue[[]byte] and sharded.Queue[[]byte] satisfy it. A durable plan
// logs key-only: nil values, no codec, v1 records on disk.
type target interface {
	Insert(key uint64, val []byte)
	TryExtractMax() (key uint64, val []byte, ok bool)
	Len() int
	CheckInvariants() error
	Close()
}

// openTarget opens the queue a plan describes — the sharded front-end for
// shards > 1 or a durable cfg (whose log only the front-end opens; a
// durable single queue is one shard), a single queue otherwise, over
// domain when it is non-nil — and returns it with the name reports give
// it; hazard names a queue over a NewHazardDomain.
func openTarget(shards int, cfg core.Config, domain *core.AllocDomain[[]byte], hazard bool) (target, string, error) {
	if shards > 1 || cfg.Durability != nil {
		shards = max(shards, 1)
		name := fmt.Sprintf("sharded(%d)", shards)
		q, _, err := sharded.Open(sharded.Config{Shards: shards, Queue: cfg}, sharded.Options[[]byte]{Domain: domain})
		if err != nil {
			return nil, name, err
		}
		return q, name, nil
	}
	q, err := core.Open(cfg, core.Options[[]byte]{Domain: domain})
	if err != nil {
		return nil, VariantName(cfg, hazard), err
	}
	return q, VariantName(cfg, hazard), nil
}

// RunChaosBaseline runs the chaos workload (without fault injection —
// the baselines expose no injection points) against one of the baseline
// queues, checking element conservation only: the b+1 and never-fails
// contracts are ZMSQ claims that the baselines do not all make (e.g. a
// SprayList extraction may fail transiently on a nonempty list).
func RunChaosBaseline(name string, maker QueueMaker, plan ChaosPlan) (ChaosResult, error) {
	plan = plan.withDefaults()
	q := maker(plan.Producers + plan.Consumers)
	checker := contract.NewChecker(contract.Config{Batch: 1 << 30})
	res := ChaosResult{Name: name, Rounds: plan.Rounds}

	var inserted, extracted atomic.Int64
	for round := 0; round < plan.Rounds; round++ {
		var producersDone atomic.Bool
		var wg, cwg sync.WaitGroup
		for p := 0; p < plan.Producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rec := checker.Recorder()
				var rng xrand.Rand
				rng.Seed(xrand.Mix64(plan.Seed ^ uint64(round)<<32 ^ uint64(p+1)))
				for i := 0; i < plan.OpsPerRound; i++ {
					key := plan.Keys.Draw(&rng)
					rec.WillInsert(key)
					q.Insert(key)
					rec.DidInsert()
					inserted.Add(1)
				}
			}(p)
		}
		for c := 0; c < plan.Consumers; c++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				rec := checker.Recorder()
				misses := 0
				for {
					k, ok := q.ExtractMax()
					if ok {
						// Only successful extractions are recorded: the
						// never-fails contract is not checked for baselines.
						rec.WillExtract()
						rec.DidExtract(k, true)
						extracted.Add(1)
						misses = 0
						continue
					}
					misses++
					// Baselines like SprayList can miss transiently on a
					// nonempty structure; require a few consecutive misses
					// after producers finish before giving up.
					if producersDone.Load() && misses >= 64 {
						return
					}
				}
			}()
		}
		wg.Wait()
		producersDone.Store(true)
		cwg.Wait()
	}

	// Final drain, tolerating transient misses.
	rec := checker.Recorder()
	for misses := 0; misses < 64; {
		k, ok := q.ExtractMax()
		if !ok {
			misses++
			continue
		}
		misses = 0
		rec.WillExtract()
		rec.DidExtract(k, true)
		extracted.Add(1)
	}
	if cl, ok := q.(pq.Closer); ok {
		cl.Close()
	}

	res.Inserted = inserted.Load()
	res.Extracted = extracted.Load()
	rep, err := checker.Verify()
	res.Report = rep
	if err != nil {
		return res, err
	}
	if rep.Remaining != 0 {
		return res, fmt.Errorf("chaos(%s): %d elements lost (inserted %d, extracted %d)",
			name, rep.Remaining, res.Inserted, res.Extracted)
	}
	return res, nil
}

// BaselineMakers returns the subset of Makers suitable for the chaos
// conservation run (queues whose drain terminates deterministically).
func BaselineMakers() map[string]QueueMaker {
	all := Makers()
	out := map[string]QueueMaker{
		"mound":      all["mound"],
		"multiqueue": all["multiqueue"],
		"globalheap": all["globalheap"],
		"spraylist":  all["spraylist"],
	}
	return out
}
