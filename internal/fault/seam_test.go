package fault_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// An *Injector is what chaos testing hands a queue as core.Config.Faults.
var _ core.Faults = (*fault.Injector)(nil)

// TestNilInjectorAsFaults: a nil *Injector stored in Config.Faults is a
// non-nil core.Faults, so the queue consults it at every site. It must
// answer as no injector would: no panic and no forced trylock failure.
// The always-fail row shows the count would see one. One goroutine means
// no real lock contention, so every counted failure is an injected one.
func TestNilInjectorAsFaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		faults   core.Faults
		injected bool
	}{
		{"nil-injector", (*fault.Injector)(nil), false},
		{"always-fail", fault.New(1, fault.Plan{TryLockPct: 100}), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			met := core.NewMetrics()
			q := core.New[int](core.Config{Batch: 4, TargetLen: 4, Faults: tc.faults, Metrics: met})
			r := xrand.New(5)
			inserted, extracted := 0, 0
			for i := 0; i < 3000; i++ {
				q.Insert(r.Uint64()%10000, i)
				inserted++
				if i%3 == 0 {
					if _, _, ok := q.TryExtractMax(); ok {
						extracted++
					}
				}
			}
			if err := q.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			extracted += len(q.Drain())
			if extracted != inserted {
				t.Fatalf("inserted %d, extracted %d", inserted, extracted)
			}
			if fails := q.Snapshot().TryLockFail; (fails > 0) != tc.injected {
				t.Fatalf("%d trylock failures counted, want injected=%v", fails, tc.injected)
			}
		})
	}
}
