// Package fault is a deterministic fault-injection framework for the
// ZMSQ concurrency tests. The queue's headline claims are robustness
// claims — extraction never fails on a nonempty queue, consumers block
// safely on empty, memory safety holds without the GC — but clean
// schedules rarely exercise the windows where those claims could break.
// An Injector perturbs the four riskiest synchronization surfaces on
// demand:
//
//   - TryLock: a TNode trylock acquisition is forced to fail, driving the
//     insert restart path and the extract pool-recheck path far more often
//     than organic contention would.
//   - PoolHandoff: a consumer that has claimed a pool slot stalls before
//     clearing the slot's full flag, simulating a lagging consumer and
//     forcing refillers through the "wait for lagging consumers" loop of
//     Listing 2.
//   - HazardScan: a hazard-pointer reclamation scan stalls mid-operation
//     (scans run inside set mutations, under node locks), stretching the
//     windows in which retired nodes must stay unreclaimed. Only a
//     hazard-gated allocation domain scans; the harness wires its scan
//     hook to this point where it builds one.
//   - TreeGrow: expandTree pauses between deciding to grow and publishing
//     the new level, while concurrent inserts spin through position
//     selection against the stale leafLevel.
//
// Decisions are deterministic per injection point: the n-th query of a
// point with a given seed always returns the same verdict, regardless of
// which goroutine issues it. (Which goroutine draws which verdict still
// depends on scheduling; determinism here means a seeded fault *schedule*,
// reproducible in aggregate, not a replayed interleaving.)
//
// A nil *Injector is valid and injects nothing: every method nil-checks
// its receiver, so production paths pay one predictable branch and the
// hooks compile to no-ops on the default path.
package fault

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/xrand"
)

// Point identifies one injection site.
type Point int

const (
	// TryLock forces TNode trylock acquisitions to fail.
	TryLock Point = iota
	// PoolHandoff delays a pool-slot full-flag clear after a claim.
	PoolHandoff
	// HazardScan stalls a hazard-pointer reclamation scan.
	HazardScan
	// TreeGrow pauses expandTree before publishing the new level.
	TreeGrow

	numPoints
)

// NumPoints is the number of injection points, for iteration.
const NumPoints = int(numPoints)

// String names the point for reports.
func (p Point) String() string {
	switch p {
	case TryLock:
		return "trylock"
	case PoolHandoff:
		return "pool-handoff"
	case HazardScan:
		return "hazard-scan"
	case TreeGrow:
		return "tree-grow"
	default:
		return fmt.Sprintf("fault.Point(%d)", int(p))
	}
}

// Points lists every injection point.
func Points() []Point {
	return []Point{TryLock, PoolHandoff, HazardScan, TreeGrow}
}

// Plan sets per-point fire rates (percent of queries that inject, 0–100;
// values above 100 behave as 100) and stall lengths (number of scheduler
// yields per injected stall). Any plan — including always-fire — is safe:
// the core's insert and extract paths stop consulting the injector after
// repeated consecutive failures, so injection can delay progress but
// never starve it.
type Plan struct {
	// TryLockPct is the percentage of trylock acquisitions forced to fail.
	TryLockPct int
	// PoolHandoffPct / PoolHandoffYields delay a claimed slot's release.
	PoolHandoffPct    int
	PoolHandoffYields int
	// HazardScanPct / HazardScanYields stall reclamation scans.
	HazardScanPct    int
	HazardScanYields int
	// TreeGrowPct / TreeGrowYields pause tree growth before publication.
	TreeGrowPct    int
	TreeGrowYields int
}

// DefaultPlan returns the moderate chaos schedule used by cmd/chaos and
// the Chaos tests: every point fires often enough to be exercised in a
// short run without starving progress.
func DefaultPlan() Plan {
	return Plan{
		TryLockPct:        20,
		PoolHandoffPct:    25,
		PoolHandoffYields: 8,
		HazardScanPct:     50,
		HazardScanYields:  16,
		TreeGrowPct:       75,
		TreeGrowYields:    32,
	}
}

// pct returns the fire rate for p.
func (pl Plan) pct(p Point) int {
	switch p {
	case TryLock:
		return pl.TryLockPct
	case PoolHandoff:
		return pl.PoolHandoffPct
	case HazardScan:
		return pl.HazardScanPct
	case TreeGrow:
		return pl.TreeGrowPct
	default:
		return 0
	}
}

// yields returns the stall length for p.
func (pl Plan) yields(p Point) int {
	switch p {
	case PoolHandoff:
		return pl.PoolHandoffYields
	case HazardScan:
		return pl.HazardScanYields
	case TreeGrow:
		return pl.TreeGrowYields
	default:
		return 0
	}
}

// pointState is one point's counters, padded so the hot counters of
// different points do not share a cache line.
type pointState struct {
	calls atomic.Uint64
	fired atomic.Uint64
	_     [48]byte
}

// Injector makes seeded fault decisions. Safe for concurrent use; a nil
// *Injector never injects.
type Injector struct {
	plan  Plan
	seeds [numPoints]uint64
	state [numPoints]pointState
}

// New returns an injector drawing decisions from seed under plan.
func New(seed uint64, plan Plan) *Injector {
	in := &Injector{plan: plan}
	for p := 0; p < NumPoints; p++ {
		in.seeds[p] = xrand.Mix64(seed ^ (uint64(p)+1)*0x9e3779b97f4a7c15)
	}
	return in
}

// Fire reports whether the current query of point p should inject a
// fault, and counts the query either way. The verdict for the n-th query
// of p depends only on (seed, p, n).
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	st := &in.state[p]
	n := st.calls.Add(1) - 1
	pct := in.plan.pct(p)
	if pct <= 0 {
		return false
	}
	if pct < 100 && xrand.Mix64(in.seeds[p]+n)%100 >= uint64(pct) {
		return false
	}
	st.fired.Add(1)
	return true
}

// Stall queries p and, when the verdict is to inject, yields the
// processor the planned number of times. Used at the three delay-style
// points; TryLock uses Fire directly.
func (in *Injector) Stall(p Point) {
	if in == nil || !in.Fire(p) {
		return
	}
	for i := in.plan.yields(p); i > 0; i-- {
		runtime.Gosched()
	}
}

// Calls reports how many times point p has been queried.
func (in *Injector) Calls(p Point) uint64 {
	if in == nil {
		return 0
	}
	return in.state[p].calls.Load()
}

// Fired reports how many times point p actually injected.
func (in *Injector) Fired(p Point) uint64 {
	if in == nil {
		return 0
	}
	return in.state[p].fired.Load()
}
