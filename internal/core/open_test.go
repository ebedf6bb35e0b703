package core

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/wal"
)

// brokenCodec encodes like BytesCodec and refuses to decode.
type brokenCodec struct{ wal.BytesCodec }

func (brokenCodec) Decode([]byte) ([]byte, error) { return nil, errors.New("undecodable") }

// TestOpen walks the one builder through every way in and checks what
// comes back — queue, recovered state, error — for each shape of
// (Config, Options). Every refusal must return no queue.
func TestOpen(t *testing.T) {
	bytesCodec := Options[[]byte]{Codec: wal.BytesCodec{}}
	// seed leaves n acknowledged valued elements in dir.
	seed := func(n int) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			q, _ := mustOpen(t, durableConfig(dir), bytesCodec)
			for k := uint64(1); k <= uint64(n); k++ {
				q.Insert(k, valueFor(k))
			}
			if err := q.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rec := newWALRecorder()
	for _, tc := range []struct {
		name    string
		cfg     func(dir string) Config
		opts    Options[[]byte]
		prepare func(t *testing.T, dir string)
		wantErr bool
		durable bool // a state comes back
		live    int
	}{
		{name: "volatile", cfg: func(string) Config { return DefaultConfig() }},
		{name: "external policy", cfg: func(string) Config {
			cfg := DefaultConfig()
			cfg.WAL = rec
			return cfg
		}},
		{name: "fresh directory", cfg: durableConfig, opts: bytesCodec, durable: true},
		{name: "reopened directory", cfg: durableConfig, opts: bytesCodec, prepare: seed(5), durable: true, live: 5},
		{name: "valued directory without codec", cfg: durableConfig, prepare: seed(5), wantErr: true},
		{name: "undecodable payload", cfg: durableConfig, opts: Options[[]byte]{Codec: brokenCodec{}}, prepare: seed(1), wantErr: true},
		{name: "invalid config", cfg: func(dir string) Config {
			cfg := durableConfig(dir)
			cfg.Batch = -1
			return cfg
		}, wantErr: true},
		{name: "durability without a directory", cfg: func(string) Config { return durableConfig("") }, wantErr: true},
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
			if _, isLog := q.WALStats(); isLog != tc.durable {
				t.Fatalf("WALStats ok=%v on a queue with durable=%v", isLog, tc.durable)
			}
			if err := q.SyncWAL(); err != nil {
				t.Fatalf("SyncWAL: %v", err)
			}
			if err := q.CloseWAL(); err != nil {
				t.Fatalf("CloseWAL: %v", err)
			}
		})
	}
	// The external policy saw the row's one insert and one extract, and
	// CloseWAL only synced it.
	if rec.inserts[99] != 1 || rec.extracts[99] != 1 || rec.syncs < 2 {
		t.Fatalf("external policy logged %d inserts, %d extracts of key 99 and %d syncs", rec.inserts[99], rec.extracts[99], rec.syncs)
	}
}

// TestReopenIsRecover pins the footgun shut: there is no way to open a
// durability directory that skips what it holds. Open, insert n,
// acknowledge, close, Open again: the n elements are back, byte for byte,
// and once drained a third Open finds nothing.
func TestReopenIsRecover(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options[[]byte]
		value func(uint64) []byte
	}{
		{"valued", Options[[]byte]{Codec: wal.BytesCodec{}}, valueFor},
		{"key-only", Options[[]byte]{}, func(uint64) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 200
			cfg := durableConfig(t.TempDir())
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
