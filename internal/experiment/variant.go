package experiment

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pq"
	"repro/internal/sharded"
)

// coreConfig materializes the data form into a core.Config, starting from
// DefaultConfig so unset fields keep the paper's recommended settings.
func (c *QueueConfig) coreConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	if c == nil {
		return cfg, nil
	}
	if c.Batch != 0 {
		cfg.Batch = c.Batch
	}
	if c.TargetLen != 0 {
		cfg.TargetLen = c.TargetLen
	}
	switch c.Lock {
	case "":
	case "std":
		cfg.Lock = core.LockStd
	case "tas":
		cfg.Lock = core.LockTAS
	case "tatas":
		cfg.Lock = core.LockTATAS
	default:
		return cfg, fmt.Errorf("unknown lock %q (want std, tas, tatas)", c.Lock)
	}
	switch c.SetMode {
	case "":
	case "list":
		cfg.SetMode = core.SetModeList
	case "array":
		cfg.SetMode = core.SetModeArray
	default:
		return cfg, fmt.Errorf("unknown set_mode %q (want list, array)", c.SetMode)
	}
	if c.NoTryLock {
		cfg.NoTryLock = true
	}
	return cfg, cfg.Validate()
}

// hazard reports whether the cell runs the paper's memory-safe ZMSQ: its
// queue's list blocks reused only after a hazard-pointer scan
// (harness.NewHazardDomain) instead of through the product's recycler.
func (c *QueueConfig) hazard() bool { return c != nil && c.Hazard }

// blocking reports whether the cell's consumers sleep on an empty queue:
// its queue wrapped in the §3.6 ticket ring (harness.NewBlockingZMSQ).
func (c *QueueConfig) blocking() bool { return c != nil && c.Blocking }

// helper reports whether the cell drives the §5 helper on its queue
// (harness.StartHelper).
func (c *QueueConfig) helper() bool { return c != nil && c.Helper }

// errCoreOnly refuses the hazard and blocking keys outside the cells that
// build one core queue: the sharded, service and recovery cells drive the
// product.
var errCoreOnly = errors.New(`"hazard" and "blocking" apply to zmsq cells only`)

// errSetStatsOnly refuses the helper key outside setstats cells, the only
// runner that drives the helper on the queue it builds.
var errSetStatsOnly = errors.New(`"helper" applies to setstats cells only`)

// newQueue builds the bare core queue of a cell that drives one directly:
// over a harness.NewHazardDomain, whose scans count on scans, when the
// cell asks for hazard.
func (c *QueueConfig) newQueue(cfg core.Config, scans *core.Metrics) *core.Queue[struct{}] {
	var opts core.Options[struct{}]
	if c.hazard() {
		opts.Domain = harness.NewHazardDomain[struct{}](scans, nil)
	}
	q, err := core.Open(cfg, opts)
	if err != nil {
		panic(err) // cfg came through coreConfig
	}
	return q
}

// maker resolves the variant into a harness.QueueMaker. Each call of the
// returned maker builds a fresh queue (and, when metrics are on, a fresh
// metrics handle — snapshots must not bleed across cells). opt supplies
// run-wide overrides: Metrics forces instrumentation onto every
// zmsq/sharded cell, OnQueue observes each queue built.
func (v Variant) maker(opt Options) (harness.QueueMaker, error) {
	var mk harness.QueueMaker
	switch v.Queue {
	case "zmsq", "":
		base, err := v.Config.coreConfig()
		if err != nil {
			return nil, err
		}
		dyn := v.Dynamic
		metrics := opt.Metrics || (v.Config != nil && v.Config.Metrics)
		mk = func(threads int) pq.Queue {
			cfg := base
			if dyn != nil {
				cfg.Batch = dynSize(threads, dyn.Batch)
				cfg.TargetLen = dynSize(threads, dyn.Target)
			}
			if metrics {
				cfg.Metrics = core.NewMetrics()
			}
			z := harness.NewZMSQ
			if v.Config.hazard() {
				z = harness.NewHazardZMSQ
			}
			if v.Config.blocking() {
				return harness.NewBlockingZMSQ(z(cfg))
			}
			return z(cfg)
		}
	case "sharded":
		base, err := v.Config.coreConfig()
		if err != nil {
			return nil, err
		}
		if v.Config.hazard() || v.Config.blocking() {
			return nil, errCoreOnly
		}
		shards := v.Shards
		metrics := opt.Metrics || (v.Config != nil && v.Config.Metrics)
		mk = func(int) pq.Queue {
			cfg := base
			if metrics {
				cfg.Metrics = core.NewMetrics()
			}
			return harness.NewSharded(sharded.Config{Shards: shards, Queue: cfg})
		}
	default:
		reg, ok := harness.Makers()[v.Queue]
		if !ok {
			return nil, fmt.Errorf("queue %q is neither zmsq, sharded, nor a registered maker (have %v)",
				v.Queue, harness.MakerNames())
		}
		mk = reg
	}
	if opt.OnQueue != nil {
		inner, hook := mk, opt.OnQueue
		mk = func(threads int) pq.Queue {
			q := inner(threads)
			hook(q)
			return q
		}
	}
	return mk, nil
}

// dynSize maps a dynamic ratio to a concrete parameter: round(threads *
// mult), floored at 1.
func dynSize(threads int, mult float64) int {
	n := int(math.Round(float64(threads) * mult))
	if n < 1 {
		n = 1
	}
	return n
}
