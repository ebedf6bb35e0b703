package experiment

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
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
	if c.Batch > 0 {
		cfg.Batch = c.Batch
	}
	if c.TargetLen > 0 {
		cfg.TargetLen = c.TargetLen
	}
	switch c.Lock {
	case "":
	case "std":
		cfg.Lock = locks.Std
	case "tas":
		cfg.Lock = locks.TAS
	case "tatas":
		cfg.Lock = locks.TATAS
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
	if c.Leaky {
		cfg.Leaky = true
	}
	if c.Blocking {
		cfg.Blocking = true
	}
	if c.Helper {
		cfg.Helper = true
	}
	return cfg, nil
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
			return harness.NewZMSQ(cfg)
		}
	case "sharded":
		base, err := v.Config.coreConfig()
		if err != nil {
			return nil, err
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
