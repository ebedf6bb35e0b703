package sharded

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestSharedDomainAcrossQueues builds several sharded queues over one
// core.AllocDomain — the multi-tenant server shape — and checks they
// operate independently while sharing the reclamation substrate.
func TestSharedDomainAcrossQueues(t *testing.T) {
	qcfg := core.DefaultConfig()
	ad := core.NewAllocDomain[int](nil)

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

// TestSharedDomainMixedSetModes: a domain has no set mode, so tenants of
// both modes share one — the list tenant's blocks recycle through it, the
// array tenant's sets hold none — and each durable tenant round-trips its
// own log.
func TestSharedDomainMixedSetModes(t *testing.T) {
	for _, tc := range []struct{ first, second core.SetMode }{
		{core.SetModeList, core.SetModeArray},
		{core.SetModeArray, core.SetModeList},
	} {
		t.Run(tc.first.String()+"-domain", func(t *testing.T) {
			ad := core.NewAllocDomain[int](nil)
			for i, mode := range []core.SetMode{tc.first, tc.second} {
				cfg := durableConfig(2, t.TempDir())
				cfg.Queue.SetMode = mode
				q, _ := mustOpen(t, cfg, core.Options[int]{Domain: ad})
				for k := 1; k <= 500; k++ {
					q.Insert(uint64(k), i)
				}
				if got := len(q.Drain()); got != 500 {
					t.Fatalf("%v tenant drained %d of 500", mode, got)
				}
				if err := q.CloseWAL(); err != nil {
					t.Fatalf("%v tenant: CloseWAL: %v", mode, err)
				}
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
	ad := core.NewAllocDomain[struct{}](nil)

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

	rd := core.NewAllocDomain[struct{}](nil)
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
