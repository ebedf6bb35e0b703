package harness

import (
	"repro/internal/core"
	"repro/internal/pq"
)

// MetricsSource is the capability interface through which runners and
// expgrid -metricsaddr read a queue's instrumentation. The ZMSQ adapters
// satisfy it; baseline substrates do not, and runners simply skip them.
type MetricsSource interface {
	Snapshot() core.MetricsSnapshot
}

// Snapshot implements MetricsSource on the ZMSQ adapter.
func (z *ZMSQ) Snapshot() core.MetricsSnapshot { return z.Q.Snapshot() }

var _ MetricsSource = (*ZMSQ)(nil)

// SnapshotOf returns q's metrics snapshot if q exposes one AND metrics were
// enabled on it, else nil. Runners use it to attach telemetry to results
// without caring which substrate ran.
func SnapshotOf(q pq.Queue) *core.MetricsSnapshot {
	ms, ok := q.(MetricsSource)
	if !ok {
		return nil
	}
	s := ms.Snapshot()
	if !s.Enabled {
		return nil
	}
	return &s
}
