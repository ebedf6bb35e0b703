package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/hazard"
)

// AllocDomain is the set-node allocation/reclamation seam, promoted to a
// first-class object so it can be shared across queues: a sharded
// front-end (internal/sharded) builds S core queues over ONE domain, so
// recycled lnodes, the hazard-pointer domain and the leaky-mode node cache
// are pooled across shards instead of fragmenting into S private copies.
//
// A domain is in exactly one of three modes, fixed at construction from
// the Config that built it:
//
//   - memory-safe list mode (the default): a hazard.Domain gates lnode
//     reuse, so reclamation never depends on the garbage collector
//     (§3.5); nodes that pass a scan recycle through the retiring
//     context's own free stack, with free as the shared pool behind the
//     stacks;
//   - leaky list mode (Config.Leaky): lnodes recycle through the sharded
//     node cache, the GC backing any stale diagnostic reader;
//   - array mode: sets hold no lnodes, so the domain is empty — nothing
//     to reclaim.
//
// Per-operation alloc handles (see alloc in tnode.go) are the only
// consumers; they are created by each queue's context pool.
type AllocDomain[V any] struct {
	// dom is non-nil iff memory-safe list mode.
	dom *hazard.Domain[lnode[V]]
	// cache is non-nil iff leaky list mode.
	cache *nodeCache[V]
	// free holds scanned lnodes the contexts' free stacks spilled or left
	// behind (memory-safe mode only).
	free freelist[V]

	arraySet bool
	leaky    bool
}

// NewAllocDomain builds a standalone reclamation domain for cfg's set mode.
// Hand it to Open as Options.Domain to share one domain — one hazard domain,
// one freelist, one node cache — across several queues; queues opened
// without one get a private domain automatically.
//
// cfg's Faults and Metrics, if set, instrument the domain's hazard
// reclamation scans. A shared domain counts scans on the Metrics it was
// built with, regardless of which queue's retirement triggered the scan.
func NewAllocDomain[V any](cfg Config) *AllocDomain[V] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	ad := &AllocDomain[V]{
		arraySet: cfg.arraySet(),
		leaky:    cfg.Leaky,
	}
	switch {
	case ad.arraySet:
		// Array sets have no lnodes, so there is nothing to reclaim: the
		// paper's hazard pointers (§3.5) exist to gate list-node reuse.
		// Skipping the domain spares array-mode descents the publications.
	case !cfg.Leaky:
		ad.dom = hazard.NewDomain[lnode[V]]()
		if cfg.Faults != nil || cfg.Metrics != nil {
			inj, met := cfg.Faults, cfg.Metrics
			ad.dom.SetScanHook(func() {
				if met != nil {
					// Scans run on arbitrary goroutines with no opCtx in
					// reach; they are rare (amortized over retirements), so
					// a fixed shard is fine.
					met.HazardScans.Inc(0)
				}
				inj.Stall(fault.HazardScan)
			})
		}
	default:
		ad.cache = newNodeCache[V]()
	}
	return ad
}

// Compatible reports whether the domain's mode matches cfg's set mode and
// leak setting; sharing a domain across mismatched modes would route lnodes
// through the wrong (or no) reclamation protocol. Open checks it before it
// opens anything.
func (ad *AllocDomain[V]) Compatible(cfg Config) error {
	if ad.arraySet != cfg.arraySet() || ad.leaky != cfg.Leaky {
		return fmt.Errorf("zmsq: AllocDomain mode (arraySet=%v leaky=%v) does not match Config (arraySet=%v leaky=%v)",
			ad.arraySet, ad.leaky, cfg.arraySet(), cfg.Leaky)
	}
	return nil
}
