package harness

import (
	"fmt"
	"sort"
	"sync"
)

// This file is the maker registry: the single source of truth mapping a
// queue's experiment label to its constructor. Implementations register
// themselves from per-implementation files (makers_zmsq.go,
// makers_baselines.go) instead of being enumerated in one hand-maintained
// map, so adding a substrate is one Register call next to its adapter — and
// everything that looks a queue up by name (the grid spec, sssp, chaos
// -baselines) picks it up without edits.
//
// The registered name is also the display name: a maker must build queues
// whose pq.Named.Name() returns the maker key (asserted by
// TestMakerNamesMatchRegistry), so runner output labeled via pq.NameOf is
// always the registry key, never a drifting adapter-internal variant
// string.

var (
	makersMu sync.RWMutex
	makers   = map[string]QueueMaker{}
)

// Register adds a named queue constructor to the registry. It is intended
// to be called from init functions; it panics on an empty name or a
// duplicate registration, both of which are programming errors.
func Register(name string, mk QueueMaker) {
	if name == "" {
		panic("harness.Register: empty maker name")
	}
	if mk == nil {
		panic(fmt.Sprintf("harness.Register(%q): nil maker", name))
	}
	makersMu.Lock()
	defer makersMu.Unlock()
	if _, dup := makers[name]; dup {
		panic(fmt.Sprintf("harness.Register(%q): duplicate registration", name))
	}
	makers[name] = mk
}

// Makers returns a copy of the registry: every registered queue
// constructor by name. Mutating the returned map does not affect the
// registry.
func Makers() map[string]QueueMaker {
	makersMu.RLock()
	defer makersMu.RUnlock()
	out := make(map[string]QueueMaker, len(makers))
	for name, mk := range makers {
		out[name] = mk
	}
	return out
}

// MakerNames returns the registered names in sorted order, for
// deterministic iteration in reports and usage strings.
func MakerNames() []string {
	makersMu.RLock()
	names := make([]string, 0, len(makers))
	for name := range makers {
		names = append(names, name)
	}
	makersMu.RUnlock()
	sort.Strings(names)
	return names
}
