package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pq"
)

func metricsConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Metrics = core.NewMetrics()
	return cfg
}

func TestSnapshotOf(t *testing.T) {
	plain := NewZMSQ(core.DefaultConfig())
	defer plain.Close()
	if s := SnapshotOf(plain); s != nil {
		t.Errorf("SnapshotOf(no metrics) = %+v, want nil", s)
	}

	z := NewZMSQ(metricsConfig())
	defer z.Close()
	z.Insert(1)
	z.Insert(2)
	z.ExtractMax()
	s := SnapshotOf(z)
	if s == nil {
		t.Fatal("SnapshotOf(metrics-enabled ZMSQ) = nil")
	}
	if s.InsertsTotal() != 2 || s.ExtractsTotal() != 1 {
		t.Errorf("snapshot totals = %d/%d, want 2/1", s.InsertsTotal(), s.ExtractsTotal())
	}
}

func TestRunThroughputAttachesMetrics(t *testing.T) {
	spec := ThroughputSpec{Threads: 2, TotalOps: 4000, InsertPct: 50, Prefill: 256, Seed: 7}
	res := RunThroughput(func(int) pq.Queue { return NewZMSQ(metricsConfig()) }, spec)
	if res.Metrics == nil {
		t.Fatal("ThroughputResult.Metrics = nil for a metrics-enabled queue")
	}
	if res.Metrics.InsertsTotal() == 0 || res.Metrics.ExtractsTotal() == 0 {
		t.Errorf("metrics totals = %d/%d, want both > 0",
			res.Metrics.InsertsTotal(), res.Metrics.ExtractsTotal())
	}

	res = RunThroughput(func(int) pq.Queue { return NewZMSQ(core.DefaultConfig()) }, spec)
	if res.Metrics != nil {
		t.Error("ThroughputResult.Metrics non-nil for a plain queue")
	}
}
