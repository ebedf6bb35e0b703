package experiment

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
)

// TestChaosPlansMatchCI: the embedded chaos experiments build the plans
// CI has always run — 2 rounds of 800 inserts per producer, 4 producers
// and 4 consumers, fault.DefaultPlan over Queue{Batch: 8, TargetLen: 8,
// Lock: TATAS} with Uniform20 keys, on the single queue and on 3 shards:
// seeds 1 and 2 volatile, seed 1 durable. -ops and -repeats resize them.
func TestChaosPlansMatchCI(t *testing.T) {
	spec, err := LoadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	plan := func(seed uint64, shards int, durable bool) harness.ChaosPlan {
		return harness.ChaosPlan{
			Seed: seed, Rounds: 2, Producers: 4, Consumers: 4, OpsPerRound: 800,
			Faults: fault.DefaultPlan(),
			Queue:  core.Config{Batch: 8, TargetLen: 8, Lock: core.LockTATAS},
			Shards: shards, Keys: harness.Uniform20, Durable: durable,
		}
	}
	for _, tc := range []struct {
		experiment string
		opt        Options
		want       []harness.ChaosPlan
	}{
		{"chaos", Options{Seed: 1}, []harness.ChaosPlan{plan(1, 0, false), plan(2, 0, false), plan(1, 3, false), plan(2, 3, false)}},
		{"chaos-durable", Options{Seed: 1}, []harness.ChaosPlan{plan(1, 0, true), plan(1, 3, true)}},
	} {
		runs, err := chaosRuns(spec.Experiment(tc.experiment), spec.Scales["small"], tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		var got []harness.ChaosPlan
		for _, r := range runs {
			if r.v.Queue == "zmsq" {
				got = append(got, r.plan)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: zmsq plans\n got %+v\nwant %+v", tc.experiment, got, tc.want)
		}
	}

	// The race passes' size: one seed of 400 inserts per producer.
	runs, err := chaosRuns(spec.Experiment("chaos"), spec.Scales["smoke"], Options{Seed: 1, Ops: 400, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.plan.Seed != 1 || r.plan.OpsPerRound != 400 || r.plan.Rounds != 2 {
			t.Errorf("%s: resized plan %+v", r.v.Name, r.plan)
		}
	}
}
