package experiment

import (
	"fmt"
	"net"

	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/sharded"
)

// The service kind measures the system end to end: a real zmsqd
// (internal/server) on a loopback listener, driven by the open-loop load
// generator (internal/loadgen) at each offered-load point of the QPS
// sweep. The cell value is the open-loop p99 latency in milliseconds —
// scheduled-arrival to response, so queueing delay from a lagging server
// counts — and the unit a "latency" gate judges. Each repeat gets a
// fresh server so queue growth from the insert-heavy mix cannot bleed
// across samples; the best (lowest) p99 is kept, matching the grid's
// best-of convention for suppressing scheduler noise.

// runService expands variants × QPS points, each sampled Repeats times
// against a fresh in-process server.
func runService(ex *Experiment, sc Scale, opt Options) ([]CellResult, error) {
	ops := opsFor(ex, sc, opt)
	repeats := repeatsFor(ex, sc, opt)
	clients := ex.Clients
	if clients <= 0 {
		clients = 4
	}
	nt := ex.TenantCount
	if nt <= 0 {
		nt = 2
	}
	tenants := make([]string, nt)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("t%d", i)
	}
	qpsList := ex.QPS
	if len(qpsList) == 0 {
		qpsList = []int{20000}
	}
	var out []CellResult
	for _, v := range ex.Variants {
		qcfg, err := v.Config.coreConfig()
		if err != nil {
			return nil, err
		}
		scfg := sharded.Config{Shards: v.Shards, Queue: qcfg}
		if scfg.Shards <= 0 {
			scfg.Shards = autoThreads()
		}
		for _, qps := range qpsList {
			cell := Cell{
				Experiment: ex.Name, Kind: ex.Kind, Variant: v.Name,
				Mix: ex.Mix, Ops: ops, Shards: scfg.Shards,
				QPS: qps, Clients: clients, Tenants: nt,
				Repeats: repeats, Seed: opt.Seed,
			}
			res := CellResult{Cell: cell, Unit: "p99_ms", Statistic: "best"}
			for rep := 0; rep < repeats; rep++ {
				lr, stats, err := serviceSample(scfg, tenants, loadgen.Config{
					Tenants: tenants, Clients: clients, TargetQPS: qps,
					Ops: ops, InsertPct: ex.Mix,
					Seed: opt.Seed + uint64(rep)*0x9e3779b97f4a7c15,
				})
				if err != nil {
					res.Error = err.Error()
					break
				}
				if lr.Errors > 0 {
					res.Error = fmt.Sprintf("%d protocol/transport errors", lr.Errors)
					break
				}
				res.Samples = append(res.Samples, lr.P99Millis)
				if rep == 0 || lr.P99Millis < res.Value {
					res.Value = lr.P99Millis
					res.Extra = map[string]float64{
						"p50_ms":       lr.P50Millis,
						"p95_ms":       lr.P95Millis,
						"mean_ms":      lr.MeanMillis,
						"max_ms":       lr.MaxMillis,
						"achieved_qps": lr.AchievedQPS,
						"ok":           float64(lr.OK),
						"empty":        float64(lr.Empty),
						"overloaded":   float64(lr.Overloaded),
						"batch_p50":    float64(stats.BatchP50),
						"batch_mean":   stats.BatchMean,
					}
				}
				opt.progress("%s: %s qps=%d rep=%d p99=%.2fms p50=%.2fms achieved=%.0f batch_p50=%d",
					ex.Name, v.Name, qps, rep, lr.P99Millis, lr.P50Millis, lr.AchievedQPS, stats.BatchP50)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// serviceSample runs one loadgen pass against a fresh loopback server and
// returns the load result plus the server's final telemetry (for the
// coalescing batch-size histogram).
func serviceSample(scfg sharded.Config, tenants []string, lcfg loadgen.Config) (loadgen.Result, server.Stats, error) {
	s, _, err := server.New(server.Config{Tenants: tenants, Queue: scfg})
	if err != nil {
		return loadgen.Result{}, server.Stats{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return loadgen.Result{}, server.Stats{}, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	lcfg.Addr = ln.Addr().String()
	lr, err := loadgen.Run(lcfg)
	stats := s.StatsSnapshot()
	if serr := s.Shutdown(); err == nil && serr != nil {
		err = serr
	}
	if werr := <-serveErr; err == nil && werr != nil {
		err = werr
	}
	return lr, stats, err
}
