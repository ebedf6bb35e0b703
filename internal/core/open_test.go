package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/wal"
)

// mustOpen is Open for tests that expect it to succeed.
func mustOpen[V any](t *testing.T, cfg Config, opts Options[V]) *Queue[V] {
	t.Helper()
	q, err := Open(cfg, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return q
}

// TestOpen walks the one builder through the configs it is handed and
// checks what comes back. The queue has no log: every config that sets
// Durability is refused with errDurable — whatever the durability config
// says, valid or not, WAL on or off, whatever the directory already holds
// — and the refusal touches nothing in the directory it names: a log
// left there by an earlier durable queue is not recovered, truncated or
// appended to.
func TestOpen(t *testing.T) {
	durableConfig := func(dir string) Config {
		cfg := DefaultConfig()
		cfg.Durability = &DurabilityConfig{WAL: true, Dir: dir, GroupCommit: time.Millisecond}
		return cfg
	}
	// seed leaves five acknowledged elements in dir's log, with payloads
	// when valued.
	seed := func(valued bool) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			l, _, err := wal.Open(wal.Options{Dir: dir, GroupCommit: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			keys := []uint64{1, 2, 3, 4, 5}
			var vals [][]byte
			if valued {
				vals = [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
			}
			l.AppendInserts(keys, vals)
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		cfg     func(dir string) Config
		prepare func(t *testing.T, dir string)
		wantErr bool
		durable bool // the error is errDurable
	}{
		{name: "volatile", cfg: func(string) Config { return DefaultConfig() }},
		{name: "fresh directory", cfg: durableConfig, wantErr: true, durable: true},
		{name: "reopened directory", cfg: durableConfig, prepare: seed(false), wantErr: true, durable: true},
		{name: "valued directory without codec", cfg: durableConfig, prepare: seed(true), wantErr: true, durable: true},
		{name: "durability switched off", cfg: func(dir string) Config {
			cfg := durableConfig(dir)
			cfg.Durability.WAL = false
			return cfg
		}, wantErr: true, durable: true},
		{name: "durability without a directory", cfg: func(string) Config { return durableConfig("") }, wantErr: true, durable: true},
		{name: "invalid config", cfg: func(dir string) Config {
			cfg := durableConfig(dir)
			cfg.Batch = -1
			return cfg
		}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.prepare != nil {
				tc.prepare(t, dir)
			}
			before := dirContents(t, dir)
			q, err := Open(tc.cfg(dir), Options[[]byte]{})
			if tc.wantErr {
				if err == nil || q != nil {
					t.Fatalf("Open = (%v, %v), want only an error", q, err)
				}
				if tc.durable && !errors.Is(err, errDurable) {
					t.Fatalf("Open error %v, want the refusal naming sharded.Open", err)
				}
				if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
					t.Fatalf("refused Open changed the durability directory: %d entries before, %d after", len(before), len(after))
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			q.Insert(99, []byte("v"))
			if k, v, ok := q.TryExtractMax(); !ok || k != 99 || string(v) != "v" {
				t.Fatalf("first extract = (%d, %q, %v), want the element just inserted", k, v, ok)
			}
		})
	}
}

// dirContents maps each file in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}
