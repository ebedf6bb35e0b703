package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/locks"
)

// chaosPlan returns a small but adversarial plan: a tiny TargetLen forces
// tree growth (TreeGrow point), memory-safe sets drive hazard scans
// (HazardScan point), a nonzero batch exercises the pool (PoolHandoff
// point), and trylocks everywhere hit the TryLock point.
func chaosPlan(seed uint64) ChaosPlan {
	return ChaosPlan{
		Seed:        seed,
		Rounds:      3,
		Producers:   4,
		Consumers:   4,
		OpsPerRound: 1500,
		Faults:      fault.DefaultPlan(),
		Queue: core.Config{
			Batch:     8,
			TargetLen: 8,
			Lock:      locks.TATAS,
		},
		Keys: Uniform20,
	}
}

// TestChaosZMSQ is the acceptance gate, for the single queue and for the
// sharded front-end: a seeded fault schedule must inject at all four points
// and complete with intact invariants (per round, across shards), zero
// failed extractions on a provably nonempty queue, conservation, and no
// violation of the b+1 window — composed to S·(Batch+1) for S shards.
func TestChaosZMSQ(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   uint64
		shards int
	}{
		{"zmsq", 0xC4A05, 0},
		{"sharded(3)", 0x5A4D, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := chaosPlan(tc.seed)
			plan.Shards = tc.shards
			res, err := RunChaos(plan)
			if err != nil {
				t.Fatalf("chaos run failed: %v\nviolations: %v", err, res.Report.Violations)
			}
			if res.Name != tc.name {
				t.Errorf("result is named %q, want %q", res.Name, tc.name)
			}
			for _, p := range fault.Points() {
				if !plan.Faults.Armed(p) {
					continue // WAL crash points stay unarmed in volatile chaos runs
				}
				if res.FaultFired[p.String()] == 0 {
					t.Errorf("fault point %v never fired (calls=%d)", p, res.FaultCalls[p.String()])
				}
			}
			if res.Inserted == 0 || res.Inserted != res.Extracted {
				t.Fatalf("conservation: inserted %d, extracted %d", res.Inserted, res.Extracted)
			}
			if res.Report.StrictExtracts == 0 {
				t.Fatal("strict phase recorded no extractions; window contract unexercised")
			}
			bound := max(tc.shards, 1)*(plan.Queue.Batch+1) - 1
			if res.Report.WorstRun > bound {
				t.Errorf("WorstRun = %d exceeds the window bound %d: checker should have flagged this",
					res.Report.WorstRun, bound)
			}
			t.Logf("chaos: %d ops, %d strict extracts, max strict rank %d, worst run %d (bound %d), faults %v",
				res.Inserted, res.Report.StrictExtracts, res.Report.MaxStrictRank,
				res.Report.WorstRun, bound, res.FaultFired)
		})
	}
}

// TestChaosZMSQVariants runs shorter schedules over the paper's other
// configurations: strict (batch=0), leaky (no hazard domain), array sets,
// and blocking-lock inserts (NoTryLock).
func TestChaosZMSQVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	variants := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"strict", func(c *core.Config) { c.Batch = 0 }},
		{"leaky", func(c *core.Config) { c.Leaky = true }},
		{"arrayset", func(c *core.Config) { c.SetMode = core.SetModeArray }},
		{"notrylock", func(c *core.Config) { c.NoTryLock = true }},
		{"helper", func(c *core.Config) { c.Helper = true }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			plan := chaosPlan(0xBADD + uint64(len(v.name)))
			plan.Rounds = 2
			plan.OpsPerRound = 800
			v.mod(&plan.Queue)
			res, err := RunChaos(plan)
			if err != nil {
				t.Fatalf("chaos(%s) failed: %v\nviolations: %v", v.name, err, res.Report.Violations)
			}
			if res.Inserted != res.Extracted {
				t.Fatalf("conservation: inserted %d, extracted %d", res.Inserted, res.Extracted)
			}
		})
	}
}

// TestChaosFullTryLockFailureStillLive pins the injection liveness escape:
// even a 100% forced-trylock-failure schedule must not starve inserts or
// extractions (both paths bypass injection after repeated failures), so
// the run terminates with every contract intact.
func TestChaosFullTryLockFailureStillLive(t *testing.T) {
	plan := chaosPlan(3)
	plan.Rounds = 1
	plan.OpsPerRound = 200
	plan.Faults.TryLockPct = 100
	res, err := RunChaos(plan)
	if err != nil {
		t.Fatalf("chaos under 100%% trylock failure: %v\nviolations: %v", err, res.Report.Violations)
	}
	if res.Inserted != res.Extracted {
		t.Fatalf("conservation: inserted %d, extracted %d", res.Inserted, res.Extracted)
	}
}

// TestChaosDeterministicSchedule re-runs the same plan and checks the
// fault decision streams match call-for-call in aggregate.
func TestChaosDeterministicSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	plan := chaosPlan(7)
	plan.Rounds = 1
	plan.OpsPerRound = 500
	a, err := RunChaos(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(plan)
	if err != nil {
		t.Fatal(err)
	}
	if a.Inserted != b.Inserted {
		t.Fatalf("workload not reproducible: %d vs %d inserts", a.Inserted, b.Inserted)
	}
}

// TestChaosBaselineConservation runs the fault-free chaos workload over
// the baselines and checks element conservation.
func TestChaosBaselineConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	plan := chaosPlan(11)
	plan.Rounds = 2
	plan.OpsPerRound = 500
	for name, maker := range BaselineMakers() {
		t.Run(name, func(t *testing.T) {
			res, err := RunChaosBaseline(name, maker, plan)
			if err != nil {
				t.Fatalf("baseline %s: %v\nviolations: %v", name, err, res.Report.Violations)
			}
		})
	}
}
