package core

import (
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
		isArray := q.root().set.arr != nil
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
// cross-queue recycling: blocks retired through one queue, once its
// context's free stack spills them, serve the other queue's allocations
// without a fresh one, and (b) a domain has no set mode: an array-mode
// queue opens over it too, and its sets take no block from it.
func TestSharedAllocDomain(t *testing.T) {
	cfg := Config{Batch: 4, TargetLen: 8}
	ad := NewAllocDomain[int](nil)
	cfgA, cfgB := cfg, cfg
	cfgA.Metrics, cfgB.Metrics = NewMetrics(), NewMetrics()
	a := mustOpen(t, cfgA, Options[int]{Domain: ad})
	b := mustOpen(t, cfgB, Options[int]{Domain: ad})
	if a.ad != ad || b.ad != ad {
		t.Fatal("queue did not adopt the shared domain")
	}

	const n = 16000
	for i := 0; i < n; i++ {
		a.Insert(uint64(i), i)
	}
	for i := 0; i < n; i++ {
		a.TryExtractMax()
	}
	// a emptied itself, so every block it allocated fresh is free: all but
	// the last partial scan's worth and one free stack's worth have spilled
	// to the shared freelist, and b allocates from there.
	sa := a.Snapshot()
	if sa.NodeCacheMiss <= 8*localFreeDepth {
		t.Fatalf("queue a allocated %d fresh blocks, too few to tell recycled ones apart", sa.NodeCacheMiss)
	}
	reusable := sa.NodeCacheMiss - 4*localFreeDepth
	allocated := func() uint64 { s := b.Snapshot(); return s.NodeCacheHit + s.NodeCacheMiss }
	for i := 0; allocated() < reusable; i++ {
		b.Insert(uint64(i), i)
	}
	// (Not under the race detector: there sync.Pool drops contexts between
	// operations, and a dropped context's blocks wait for its finalizer.)
	snap := b.Snapshot()
	if !raceEnabled && (snap.NodeCacheMiss != 0 || snap.NodeCacheHit < reusable) {
		t.Fatalf("queue b: %d fresh blocks and %d recycled, want none fresh of the %d reusable: blocks a retired did not reach it",
			snap.NodeCacheMiss, snap.NodeCacheHit, reusable)
	}
	for _, q := range []*Queue[int]{a, b} {
		if err := q.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	arrCfg := withSetMode(cfg, SetModeArray)
	arrCfg.Metrics = NewMetrics()
	arr := mustOpen(t, arrCfg, Options[int]{Domain: ad})
	for i := 0; i < n; i++ {
		arr.Insert(uint64(i), i)
	}
	for i := 0; i < n/2; i++ {
		arr.TryExtractMax()
	}
	if s := arr.Snapshot(); s.NodeCacheHit+s.NodeCacheMiss != 0 {
		t.Fatalf("array-mode queue allocated %d list blocks through the shared domain", s.NodeCacheHit+s.NodeCacheMiss)
	}
	if err := arr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
