package sharded

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestSharedDomainAcrossQueues builds several sharded queues over one
// core.AllocDomain — the multi-tenant server shape — and checks they
// operate independently while sharing the reclamation substrate.
func TestSharedDomainAcrossQueues(t *testing.T) {
	qcfg := core.DefaultConfig()
	ad := core.NewAllocDomain[int](qcfg)

	const tenants, keys = 3, 500
	qs := make([]*Queue[int], tenants)
	for i := range qs {
		qs[i], _ = mustOpen(t, Config{Shards: 2, Queue: qcfg}, core.Options[int]{Domain: ad})
	}
	for i, q := range qs {
		for k := 1; k <= keys; k++ {
			q.Insert(uint64(i+1)<<32|uint64(k), i)
		}
	}
	// Tenants are isolated: each drains exactly its own multiset.
	for i, q := range qs {
		if got := q.Len(); got != keys {
			t.Fatalf("tenant %d: Len %d, want %d", i, got, keys)
		}
		for _, e := range q.Drain() {
			if e.Key>>32 != uint64(i+1) {
				t.Fatalf("tenant %d drained foreign key %#x", i, e.Key)
			}
			if e.Val != i {
				t.Fatalf("tenant %d drained foreign value %d", i, e.Val)
			}
		}
	}
}

// TestSharedDomainModeMismatch pins the compatibility contract: a domain
// built for one set mode must refuse a tenant of the other — with an
// error, before the tenant's durability directory is touched.
func TestSharedDomainModeMismatch(t *testing.T) {
	for _, tc := range []struct{ domain, tenant core.SetMode }{
		{core.SetModeList, core.SetModeArray},
		{core.SetModeArray, core.SetModeList},
	} {
		t.Run(tc.domain.String()+"-domain", func(t *testing.T) {
			dir := t.TempDir()
			dcfg, tcfg := core.DefaultConfig(), durableConfig(2, dir)
			dcfg.SetMode, tcfg.Queue.SetMode = tc.domain, tc.tenant
			ad := core.NewAllocDomain[int](dcfg)
			if q, _, err := Open(tcfg, core.Options[int]{Domain: ad}); err == nil || q != nil {
				t.Fatalf("Open accepted a %v tenant on a %v domain (queue %v, err %v)", tc.tenant, tc.domain, q, err)
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Fatalf("refused Open left %d entries in the durability directory (%v)", len(ents), err)
			}
		})
	}
}

// TestDurableSharedDomainRoundTrip runs the full durable tenant cycle on
// a shared domain: two tenants with separate logs, sync, close, recover
// both over a fresh shared domain, and check per-tenant conservation.
func TestDurableSharedDomainRoundTrip(t *testing.T) {
	root := t.TempDir()
	mkcfg := func(tenant string) Config { return durableConfig(2, filepath.Join(root, tenant)) }
	ad := core.NewAllocDomain[struct{}](core.DefaultConfig())

	tenants := []string{"alpha", "beta"}
	for ti, name := range tenants {
		q, _ := mustOpen(t, mkcfg(name), core.Options[struct{}]{Domain: ad})
		for k := 1; k <= 100*(ti+1); k++ {
			q.Insert(uint64(k), struct{}{})
		}
		if _, _, ok := q.TryExtractMax(); !ok {
			t.Fatalf("tenant %s: extract failed", name)
		}
		if err := q.SyncWAL(); err != nil {
			t.Fatalf("tenant %s: SyncWAL: %v", name, err)
		}
		if err := q.CloseWAL(); err != nil {
			t.Fatalf("tenant %s: CloseWAL: %v", name, err)
		}
	}

	rd := core.NewAllocDomain[struct{}](core.DefaultConfig())
	for ti, name := range tenants {
		q, st := mustOpen(t, mkcfg(name), core.Options[struct{}]{Domain: rd})
		want := 100*(ti+1) - 1
		if st.Live() != want {
			t.Fatalf("tenant %s: recovered %d live keys, want %d", name, st.Live(), want)
		}
		if got := q.Len(); got != want {
			t.Fatalf("tenant %s: Len %d after recovery, want %d", name, got, want)
		}
		if err := q.CloseWAL(); err != nil {
			t.Fatalf("tenant %s: CloseWAL after recovery: %v", name, err)
		}
	}
}
