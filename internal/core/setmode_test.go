package core

import (
	"os"
	"strings"
	"testing"
)

// TestResolvedSetMode pins what a config resolves to: the zero SetMode is
// list sets, DefaultConfig hands out list sets, and the two modes print
// the names the grid spec uses.
func TestResolvedSetMode(t *testing.T) {
	if got := (Config{}).SetMode; got != SetModeList {
		t.Errorf("zero Config.SetMode = %v, want %v", got, SetModeList)
	}
	if got := DefaultConfig().SetMode; got != SetModeList {
		t.Errorf("DefaultConfig().SetMode = %v, want %v", got, SetModeList)
	}
	for mode, want := range map[SetMode]string{SetModeList: "list", SetModeArray: "array"} {
		if got := mode.String(); got != want {
			t.Errorf("SetMode(%d).String() = %q, want %q", int(mode), got, want)
		}
		if got := (Config{SetMode: mode}).arraySet(); got != (mode == SetModeArray) {
			t.Errorf("Config{SetMode: %v}.arraySet() = %v", mode, got)
		}
	}
}

func TestSetModeValidate(t *testing.T) {
	bad := Config{SetMode: SetMode(99)}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "SetMode") {
		t.Fatalf("Validate(SetMode=99) = %v, want SetMode error", err)
	}
}

// TestSetModeSelectsImplementation runs a small workload in each explicit
// mode and checks the expected set implementation was built.
func TestSetModeSelectsImplementation(t *testing.T) {
	for _, mode := range []SetMode{SetModeList, SetModeArray} {
		q := New[int](Config{Batch: 4, TargetLen: 8, SetMode: mode})
		for i := 0; i < 200; i++ {
			q.Insert(uint64(i), i)
		}
		_, isArray := q.root().set.(*arraySet[int])
		if wantArray := mode == SetModeArray; isArray != wantArray {
			t.Errorf("SetMode %v built arraySet=%v", mode, isArray)
		}
		for i := 0; i < 200; i++ {
			if _, _, ok := q.TryExtractMax(); !ok {
				t.Fatalf("SetMode %v: extraction %d failed", mode, i)
			}
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatalf("SetMode %v: %v", mode, err)
		}
	}
}

// TestSharedAllocDomain builds two queues over one domain and verifies (a)
// cross-queue recycling: lnodes retired through one queue, once its
// context's free stack spills them, serve the other queue's allocations
// without a fresh one, and (b) mode-mismatched sharing is refused with an
// error and nothing left behind.
func TestSharedAllocDomain(t *testing.T) {
	cfg := Config{Batch: 4, TargetLen: 8}
	ad := NewAllocDomain[int](cfg)
	cfgA, cfgB := cfg, cfg
	cfgA.Metrics, cfgB.Metrics = NewMetrics(), NewMetrics()
	a, _ := mustOpen(t, cfgA, Options[int]{Domain: ad})
	b, _ := mustOpen(t, cfgB, Options[int]{Domain: ad})
	if a.ad != ad || b.ad != ad {
		t.Fatal("queue did not adopt the shared domain")
	}

	const n = 2000
	for i := 0; i < n; i++ {
		a.Insert(uint64(i), i)
	}
	for i := 0; i < n; i++ {
		a.TryExtractMax()
	}
	// All but the last partial scan's worth and one free stack's worth of
	// a's n nodes have spilled to the shared freelist; b allocates from
	// there.
	const reusable = n - 4*localFreeDepth
	for i := 0; i < reusable; i++ {
		b.Insert(uint64(i), i)
	}
	// (Not under the race detector: there sync.Pool drops contexts between
	// operations, and a dropped context's nodes wait for its finalizer.)
	snap := b.Snapshot()
	if !raceEnabled && (snap.NodeCacheMiss != 0 || snap.NodeCacheHit < reusable) {
		t.Fatalf("queue b: %d fresh lnodes and %d recycled for %d inserts, want none fresh: nodes a retired did not reach it",
			snap.NodeCacheMiss, snap.NodeCacheHit, reusable)
	}
	for _, q := range []*Queue[int]{a, b} {
		if err := q.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	// A mismatched domain is an error, found before anything is opened.
	dir := t.TempDir()
	bad := durableConfig(dir)
	bad.SetMode = SetModeArray
	if q, _, err := Open(bad, Options[int]{Domain: ad}); err == nil || q != nil {
		t.Fatalf("Open accepted a mode-mismatched domain (queue %v, err %v)", q, err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("refused Open left %d entries in the durability directory (%v)", len(ents), err)
	}
}
