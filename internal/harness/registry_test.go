package harness

import (
	"testing"

	"repro/internal/pq"
)

// stubQueue is a minimal named queue for registry-semantics tests; its
// name tracks its maker key so it never violates the registry's naming
// invariant (TestMakerNamesMatchRegistry iterates every registration,
// including test ones).
type stubQueue struct{ name string }

func (s stubQueue) Insert(uint64)              { panic("stub") }
func (s stubQueue) ExtractMax() (uint64, bool) { panic("stub") }
func (s stubQueue) Name() string               { return s.name }

func TestRegisterSemantics(t *testing.T) {
	const name = "test-registry-stub"
	Register(name, func(int) pq.Queue { return stubQueue{name: name} })
	if _, ok := Makers()[name]; !ok {
		t.Fatalf("registered maker %q not visible in Makers()", name)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("duplicate Register", func() {
		Register(name, func(int) pq.Queue { return stubQueue{name: name} })
	})
	mustPanic("empty-name Register", func() {
		Register("", func(int) pq.Queue { return stubQueue{} })
	})
	mustPanic("nil-maker Register", func() { Register("test-nil-maker", nil) })

	names := MakerNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("MakerNames not sorted/unique: %q before %q", names[i-1], names[i])
		}
	}
	if len(names) != len(Makers()) {
		t.Fatalf("MakerNames has %d entries, Makers %d", len(names), len(Makers()))
	}
}

// TestMakerNamesMatchRegistry pins the registry's labeling contract: the
// maker key is the single source of truth, so every registered maker must
// build queues whose Name() is exactly the key. pq.NameOf then labels
// runner results with the key, never a fallback or variant string.
func TestMakerNamesMatchRegistry(t *testing.T) {
	for name, mk := range Makers() {
		q := mk(2)
		if got := pq.NameOf(q, "MISSING"); got != name {
			t.Errorf("maker %q built a queue named %q", name, got)
		}
		if c, ok := q.(pq.Closer); ok {
			c.Close()
		}
	}
}

// TestCapabilityPassThrough is the capability matrix: which optional pq
// interfaces each registered substrate exposes. The two ZMSQ-backed
// adapters must pass every capability through; the baselines expose none
// of the optional ones (they are plain pq.Queue + pq.Named).
func TestCapabilityPassThrough(t *testing.T) {
	cases := []struct {
		maker                    string
		batcher, closer, metrics bool
	}{
		{"zmsq", true, true, true},
		{"zmsq(array)", true, true, true},
		{"zmsq(leak)", true, true, true},
		{"zmsq-sharded", true, true, true},
		{"mound", false, false, false},
		{"spraylist", false, false, false},
		{"multiqueue", false, false, false},
		{"globalheap", false, false, false},
		{"fifo", false, false, false},
	}
	makers := Makers()
	for _, tc := range cases {
		mk, ok := makers[tc.maker]
		if !ok {
			t.Errorf("maker %q not registered", tc.maker)
			continue
		}
		q := mk(2)
		if _, ok := q.(pq.Named); !ok {
			t.Errorf("%s: not pq.Named", tc.maker)
		}
		if _, ok := q.(pq.Batcher); ok != tc.batcher {
			t.Errorf("%s: pq.Batcher = %v, want %v", tc.maker, ok, tc.batcher)
		}
		if _, ok := q.(pq.Closer); ok != tc.closer {
			t.Errorf("%s: pq.Closer = %v, want %v", tc.maker, ok, tc.closer)
		}
		if _, ok := q.(MetricsSource); ok != tc.metrics {
			t.Errorf("%s: MetricsSource = %v, want %v", tc.maker, ok, tc.metrics)
		}
		if c, ok := q.(pq.Closer); ok {
			c.Close()
		}
	}
}
