package sharded

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// TestOpen walks the one builder through every way in and checks what
// comes back — queue, recovered state, error — for each shape of
// (Config, Options). Every refusal must return no queue. (Two tenants on
// one shared domain are TestDurableSharedDomainRoundTrip; the mismatched
// domain is TestSharedDomainModeMismatch.)
func TestOpen(t *testing.T) {
	bytesCodec := core.Options[[]byte]{Codec: wal.BytesCodec{}}
	// seed leaves n acknowledged valued elements in dir.
	seed := func(t *testing.T, dir string) {
		q, _ := mustOpen(t, durableConfig(3, dir), bytesCodec)
		for k := uint64(1); k <= 5; k++ {
			q.Insert(k, valueFor(k))
		}
		if err := q.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
	// The external policy is a log the test owns, as the crash harness does.
	extDir := t.TempDir()
	ext, err := wal.Open(wal.Options{Dir: extDir, GroupCommit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cfg     func(dir string) Config
		opts    core.Options[[]byte]
		prepare func(t *testing.T, dir string)
		wantErr bool
		durable bool // a state comes back
		live    int
	}{
		{name: "volatile", cfg: func(string) Config { return Config{Shards: 3, Queue: core.DefaultConfig()} }},
		{name: "external policy", opts: bytesCodec, cfg: func(string) Config {
			cfg := Config{Shards: 3, Queue: core.DefaultConfig()}
			cfg.Queue.WAL = ext
			return cfg
		}},
		{name: "fresh directory", cfg: func(dir string) Config { return durableConfig(3, dir) }, opts: bytesCodec, durable: true},
		{name: "reopened directory", cfg: func(dir string) Config { return durableConfig(3, dir) }, opts: bytesCodec, prepare: seed, durable: true, live: 5},
		{name: "valued directory without codec", cfg: func(dir string) Config { return durableConfig(3, dir) }, prepare: seed, wantErr: true},
		{name: "invalid config", cfg: func(dir string) Config { return durableConfig(-1, dir) }, wantErr: true},
		{name: "blocking shards", cfg: func(dir string) Config {
			cfg := durableConfig(3, dir)
			cfg.Queue.Blocking = true
			return cfg
		}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.prepare != nil {
				tc.prepare(t, dir)
			}
			q, st, err := Open(tc.cfg(dir), tc.opts)
			if tc.wantErr {
				if err == nil || q != nil || st != nil {
					t.Fatalf("Open = (%v, %v, %v), want only an error", q, st, err)
				}
				if tc.prepare == nil {
					if ents, _ := os.ReadDir(dir); len(ents) != 0 {
						t.Fatalf("refused Open left %d entries in the durability directory", len(ents))
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if (st != nil) != tc.durable {
				t.Fatalf("state %+v, want one iff the config is durable (%v)", st, tc.durable)
			}
			if st != nil && st.Live() != tc.live {
				t.Fatalf("recovered %d live keys, want %d", st.Live(), tc.live)
			}
			if got := q.Len(); got != tc.live {
				t.Fatalf("Len %d after Open, want %d", got, tc.live)
			}
			q.Insert(99, valueFor(99))
			if k, v, ok := q.TryExtractMax(); !ok || k != 99 || !bytes.Equal(v, valueFor(99)) {
				t.Fatalf("first extract = (%d, %q, %v), want the key just inserted", k, v, ok)
			}
			q.Insert(100, valueFor(100))
			if err := q.SyncWAL(); err != nil {
				t.Fatalf("SyncWAL: %v", err)
			}
			if err := q.CloseWAL(); err != nil {
				t.Fatalf("CloseWAL: %v", err)
			}
		})
	}
	// CloseWAL only synced the external policy: its owner can still close
	// it, and it holds the one element that row left queued, payload
	// included.
	if err := ext.Close(); err != nil {
		t.Fatalf("closing the external policy after CloseWAL: %v", err)
	}
	st, err := wal.Recover(extDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Live() != 1 || st.Keys[0] != 100 || st.Vals == nil || !bytes.Equal(st.Vals[0], valueFor(100)) {
		t.Fatalf("external policy holds %v / %q, want key 100 with its payload", st.Keys, st.Vals)
	}
}

// TestReopenIsRecover pins the footgun shut: there is no way to open a
// durability directory that skips what it holds. Open, insert n,
// acknowledge, close, Open again: the n elements are back, byte for byte,
// and once drained a third Open finds nothing.
func TestReopenIsRecover(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  core.Options[[]byte]
		value func(uint64) []byte
	}{
		{"valued", core.Options[[]byte]{Codec: wal.BytesCodec{}}, valueFor},
		{"key-only", core.Options[[]byte]{}, func(uint64) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 200
			cfg := durableConfig(3, t.TempDir())
			q, st := mustOpen(t, cfg, tc.opts)
			if st.Live() != 0 || q.Len() != 0 {
				t.Fatalf("fresh directory opened with %d live keys, Len %d", st.Live(), q.Len())
			}
			for k := uint64(1); k <= n; k++ {
				q.Insert(k, tc.value(k))
			}
			if err := q.SyncWAL(); err != nil {
				t.Fatal(err)
			}
			if err := q.CloseWAL(); err != nil {
				t.Fatal(err)
			}

			q, st = mustOpen(t, cfg, tc.opts)
			if st.Live() != n || q.Len() != n {
				t.Fatalf("reopened directory: %d live keys, Len %d, want %d", st.Live(), q.Len(), n)
			}
			if (st.Vals != nil) != (tc.opts.Codec != nil) {
				t.Fatalf("recovered payloads present=%v with codec=%v", st.Vals != nil, tc.opts.Codec != nil)
			}
			for _, e := range q.Drain() {
				if !bytes.Equal(e.Val, tc.value(e.Key)) {
					t.Fatalf("key %d came back with payload %q, want %q", e.Key, e.Val, tc.value(e.Key))
				}
			}
			if err := q.CloseWAL(); err != nil {
				t.Fatal(err)
			}

			q, st = mustOpen(t, cfg, tc.opts)
			if st.Live() != 0 || q.Len() != 0 {
				t.Fatalf("drained directory reopened with %d live keys, Len %d", st.Live(), q.Len())
			}
			if err := q.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
