package repro_test

import (
	"strconv"
	"strings"
	"testing"
)

// outsideProduct lists the packages under repro/internal/ that cmd/zmsqd
// must not link: fault injection, the hazard-pointer protocol, the
// harness and its baselines, checkers, the experiment grid, the frozen
// statistics forwarder and the crash model. They plug into the serving
// stack from outside, through seams it declares.
var outsideProduct = []string{
	"fault", "hazard", "harness", "spray", "mound", "multiqueue",
	"contract", "quality", "experiment", "stats", "wal/crashfs",
}

// TestProductClosure walks the module imports of cmd/zmsqd's non-test
// files, transitively, and fails on any package of outsideProduct it
// reaches, naming the import chain that pulled it in.
func TestProductClosure(t *testing.T) {
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

	const root = "repro/cmd/zmsqd"
	via := map[string]string{root: ""} // reached package → its importer
	for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
		for _, dep := range imports[queue[0]] {
			if _, seen := via[dep]; !seen {
				via[dep] = queue[0]
				queue = append(queue, dep)
			}
		}
	}
	if _, ok := via["repro/internal/core"]; !ok {
		t.Fatalf("the walk from %s never reached repro/internal/core; reached %d packages", root, len(via))
	}
	for _, name := range outsideProduct {
		p := "repro/internal/" + name
		if _, ok := via[p]; !ok {
			continue
		}
		chain := p
		for q := via[p]; q != ""; q = via[q] {
			chain = q + " → " + chain
		}
		t.Errorf("%s links %s: %s", root, p, chain)
	}
}
