package harness

import (
	"repro/internal/core"
	"repro/internal/pq"
	"repro/internal/sharded"
)

// Registry entries for the queues this repository implements: the three
// ZMSQ variants of Figure 5 and the sharded front-end.

// registerZMSQ registers a ZMSQ maker whose adapter is named by the maker
// key itself: the key — not VariantName — is what labels result rows.
func registerZMSQ(name string, mod func(*core.Config)) {
	Register(name, func(int) pq.Queue {
		cfg := core.DefaultConfig()
		if mod != nil {
			mod(&cfg)
		}
		z := NewZMSQ(cfg)
		z.n = name
		return z
	})
}

func init() {
	registerZMSQ("zmsq", nil)
	registerZMSQ("zmsq(array)", func(c *core.Config) { c.SetMode = core.SetModeArray })
	registerZMSQ("zmsq(leak)", func(c *core.Config) { c.Leaky = true })

	// The sharded front-end sizes its shard count to the worker count like
	// SprayList and MultiQueue size their relaxation, capped at the same
	// point the package's own default caps (beyond ~8 shards the composed
	// S·(Batch+1) window grows faster than contention shrinks).
	Register("zmsq-sharded", func(threads int) pq.Queue {
		s := threads
		if s < 1 {
			s = 1
		}
		if s > 8 {
			s = 8
		}
		return NewSharded(sharded.Config{Shards: s, Queue: core.DefaultConfig()})
	})
}
