package repro_test

import (
	"strconv"
	"strings"
	"testing"
)

// outsideProduct lists the packages under repro/internal/ that cmd/zmsqd
// must not link: fault injection, the hazard-pointer protocol, the §3.6
// wait ring, the harness and its baselines, checkers, the experiment grid,
// the frozen statistics forwarder and the crash model. They plug into the
// serving stack from outside, through seams it declares or wrappers around
// its queue.
var outsideProduct = []string{
	"fault", "hazard", "waitring", "harness", "spray", "mound", "multiqueue",
	"contract", "quality", "experiment", "stats", "wal/crashfs",
}

// TestProductClosure walks the module imports of cmd/zmsqd's non-test
// files, transitively, and fails on any package of outsideProduct it
// reaches, naming the import chain that pulled it in.
func TestProductClosure(t *testing.T) {
	const root = "repro/cmd/zmsqd"
	via := reach(t, root)
	if _, ok := via["repro/internal/core"]; !ok {
		t.Fatalf("the walk from %s never reached repro/internal/core; reached %d packages", root, len(via))
	}
	for _, name := range outsideProduct {
		if chain, ok := importChain(via, "repro/internal/"+name); ok {
			t.Errorf("%s links repro/internal/%s: %s", root, name, chain)
		}
	}
}

// TestCoreHasNoLog fails if internal/core's non-test files reach
// internal/wal: the queue is in-memory, and the log belongs to the
// sharded front-end, which logs at its own operation boundaries.
func TestCoreHasNoLog(t *testing.T) {
	const root, log = "repro/internal/core", "repro/internal/wal"
	via := reach(t, root)
	if chain, ok := importChain(via, log); ok {
		t.Errorf("%s links %s: %s", root, log, chain)
	}
	if _, ok := reach(t, "repro/internal/sharded")[log]; !ok {
		t.Errorf("the walk from repro/internal/sharded never reached %s; the check is walking nothing", log)
	}
}

// reach walks the module imports of root's non-test files, transitively,
// and returns every package it reaches mapped to the package that imported
// it first (root maps to "").
func reach(t *testing.T, root string) map[string]string {
	t.Helper()
	imports := map[string][]string{} // package → module packages it imports
	for _, gf := range parseModule(t, ".", "repro") {
		if gf.test {
			continue
		}
		for _, imp := range gf.f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: import %s: %v", gf.name, imp.Path.Value, err)
			}
			if p == "repro" || strings.HasPrefix(p, "repro/") {
				imports[gf.pkg] = append(imports[gf.pkg], p)
			}
		}
	}

	via := map[string]string{root: ""} // reached package → its importer
	for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
		for _, dep := range imports[queue[0]] {
			if _, seen := via[dep]; !seen {
				via[dep] = queue[0]
				queue = append(queue, dep)
			}
		}
	}
	return via
}

// importChain renders the import chain by which a reach walk got to p, if
// it did.
func importChain(via map[string]string, p string) (string, bool) {
	if _, ok := via[p]; !ok {
		return "", false
	}
	chain := p
	for q := via[p]; q != ""; q = via[q] {
		chain = q + " → " + chain
	}
	return chain, true
}
