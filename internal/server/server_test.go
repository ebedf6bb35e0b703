package server

import (
	"encoding/binary"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/wire"
)

func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	s, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		_ = s.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, ln.Addr().String()
}

func baseConfig(tenants ...string) Config {
	return Config{
		Tenants: tenants,
		Queue:   sharded.Config{Shards: 2, Queue: core.DefaultConfig()},
	}
}

// TestServerMultiTenant drives two tenants over one connection and
// checks isolation: each tenant extracts only its own keys.
func TestServerMultiTenant(t *testing.T) {
	_, addr := startServer(t, baseConfig("alpha", "beta"))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	for i := 1; i <= n; i++ {
		if r, err := c.Do(wire.Request{Op: wire.OpInsert, Tenant: "alpha", Key: uint64(i)}); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("alpha insert %d: %+v %v", i, r, err)
		}
		if r, err := c.Do(wire.Request{Op: wire.OpInsert, Tenant: "beta", Key: uint64(i) << 32}); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("beta insert %d: %+v %v", i, r, err)
		}
	}
	for _, tc := range []struct {
		tenant string
		check  func(k uint64) bool
	}{
		{"alpha", func(k uint64) bool { return k <= n }},
		{"beta", func(k uint64) bool { return k > n }},
	} {
		r, err := c.Do(wire.Request{Op: wire.OpLen, Tenant: tc.tenant})
		if err != nil || r.Status != wire.StatusOK || r.Value != n {
			t.Fatalf("%s len: %+v %v", tc.tenant, r, err)
		}
		seen := 0
		for {
			r, err := c.Do(wire.Request{Op: wire.OpExtractBatch, Tenant: tc.tenant, N: 64})
			if err != nil {
				t.Fatal(err)
			}
			if r.Status == wire.StatusEmpty {
				break
			}
			if r.Status != wire.StatusOK {
				t.Fatalf("%s extract: %+v", tc.tenant, r)
			}
			for _, k := range r.Keys {
				if !tc.check(k) {
					t.Fatalf("tenant %s extracted foreign key %#x", tc.tenant, k)
				}
				seen++
			}
		}
		if seen != n {
			t.Fatalf("tenant %s extracted %d keys, want %d", tc.tenant, seen, n)
		}
	}
	if r, err := c.Do(wire.Request{Op: wire.OpLen, Tenant: "nosuch"}); err != nil || r.Status != wire.StatusBadTenant {
		t.Fatalf("unknown tenant: %+v %v", r, err)
	}
}

// TestServerCoalescing pipelines bursts of inserts on one connection and
// asserts the coalescer folds them: the executed batch-size histogram's
// p50 must exceed 1 (the CI smoke criterion).
func TestServerCoalescing(t *testing.T) {
	s, addr := startServer(t, baseConfig("alpha", "beta"))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const bursts, burst = 50, 32
	key := uint64(0)
	for b := 0; b < bursts; b++ {
		ps := make([]*wire.Pending, 0, burst)
		for i := 0; i < burst; i++ {
			key++
			p, err := c.Start(wire.Request{Op: wire.OpInsert, Tenant: "alpha", Key: key})
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			r, err := p.Wait()
			if err != nil || r.Status != wire.StatusOK {
				t.Fatalf("burst insert: %+v %v", r, err)
			}
		}
	}
	st := s.StatsSnapshot()
	if st.Inserts != bursts*burst {
		t.Fatalf("inserts %d, want %d", st.Inserts, bursts*burst)
	}
	if st.BatchP50 <= 1 {
		t.Fatalf("batch p50 %d (mean %.2f over %d batches): pipelined inserts did not coalesce",
			st.BatchP50, st.BatchMean, st.Batches)
	}
	if st.ProtoErrors != 0 {
		t.Fatalf("proto errors: %d", st.ProtoErrors)
	}
}

// TestServerOverload fills the per-connection inflight bound and checks
// admission control refuses the overflow with a retry-after instead of
// executing it. It drives serveConn over a synchronous net.Pipe — every
// write blocks until the peer reads — so "the client stopped reading"
// is exact, not a function of kernel socket buffer sizes: the writer
// blocks on its first flush, the response queue fills, and every
// further request must be refused until the client reads again.
func TestServerOverload(t *testing.T) {
	cfg := baseConfig("alpha")
	cfg.MaxInflight = 8
	s, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	cli, srv := net.Pipe()
	connDone := make(chan struct{})
	go func() {
		defer close(connDone)
		s.serveConn(srv)
	}()

	// Pipeline requests without reading: more than MaxInflight of them,
	// as one write so the server's read buffer absorbs the burst whole.
	// OpLen is used because it cannot coalesce — each request needs its
	// own response slot.
	const requests = 20
	var buf []byte
	for i := 0; i < requests; i++ {
		buf, err = wire.AppendRequest(buf, wire.Request{Op: wire.OpLen, ID: uint32(i), Tenant: "alpha"})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.Write(buf); err != nil {
		t.Fatal(err)
	}
	// Wait until admission control has demonstrably refused at least one
	// request — the stable state: writer blocked on the unread pipe,
	// queue full, reader refusing.
	for i := 0; s.overloads.Value() == 0; i++ {
		if i > 5000 {
			t.Fatal("admission control never refused despite full response queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Now read everything back: every request got exactly one response,
	// each either executed or refused with a retry-after.
	var scratch []byte
	oks, overloads := 0, 0
	for i := 0; i < requests; i++ {
		payload, ns, err := wire.ReadFrame(cli, scratch)
		scratch = ns
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		r, err := wire.ParseResponse(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch r.Status {
		case wire.StatusOK:
			oks++
		case wire.StatusOverloaded:
			overloads++
			if r.RetryAfterMillis == 0 {
				t.Fatal("overloaded response without retry-after")
			}
		default:
			t.Fatalf("response %d: unexpected status %d", i, r.Status)
		}
	}
	if oks == 0 || overloads == 0 {
		t.Fatalf("want a mix of OK and Overloaded, got %d OK / %d overloaded", oks, overloads)
	}
	if got := s.StatsSnapshot().Overloads; got != uint64(overloads) {
		t.Fatalf("overload counter %d, want %d", got, overloads)
	}
	_ = cli.Close()
	<-connDone
}

// TestServerDrainZeroLoss is the durability acceptance criterion: every
// insert acked before a graceful Shutdown must be recoverable by the
// next server generation, minus what was extracted and acked away.
func TestServerDrainZeroLoss(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig("alpha", "beta")
	cfg.WALDir = dir

	s, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acked := map[string]map[uint64]bool{"alpha": {}, "beta": {}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, tenant := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 1; i <= 500; i++ {
				k := uint64(i)
				r, err := c.Do(wire.Request{Op: wire.OpInsert, Tenant: tenant, Key: k})
				if err != nil {
					t.Errorf("%s insert %d: %v", tenant, i, err)
					return
				}
				if r.Status == wire.StatusOK {
					mu.Lock()
					acked[tenant][k] = true
					mu.Unlock()
				}
			}
		}(tenant)
	}
	wg.Wait()
	// Extract (and thereby consume) a few acked keys from alpha.
	extracted := 0
	for i := 0; i < 20; i++ {
		r, err := c.Do(wire.Request{Op: wire.OpExtractMax, Tenant: "alpha"})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status == wire.StatusOK {
			delete(acked["alpha"], r.Value)
			extracted++
		}
	}
	if extracted == 0 {
		t.Fatal("no extractions succeeded")
	}

	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	_ = c.Close()

	// Next generation: recovery must surface exactly the acked keys.
	s2, recovered, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d tenants, want 2: %+v", len(recovered), recovered)
	}
	for _, tenant := range []string{"alpha", "beta"} {
		q := s2.tenants[tenant].q
		if got, want := q.Len(), len(acked[tenant]); got != want {
			t.Fatalf("tenant %s: recovered %d keys, want %d acked", tenant, got, want)
		}
		for _, e := range q.Drain() {
			if !acked[tenant][e.Key] {
				t.Fatalf("tenant %s: recovered unacked key %d", tenant, e.Key)
			}
		}
	}
	if err := s2.Shutdown(); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestServerDrainingStatus pins the drain protocol: after Shutdown, new
// connections are refused and the stats snapshot reports draining.
func TestServerDrainingStatus(t *testing.T) {
	s, _, err := New(baseConfig("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
	if !s.StatsSnapshot().Draining {
		t.Fatal("stats do not report draining")
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestServerBadFrame sends a CRC-valid but ungrammatical frame and then a
// valid one: the server must answer StatusBadRequest, keep the stream,
// and count the protocol error.
func TestServerBadFrame(t *testing.T) {
	s, addr := startServer(t, baseConfig("alpha"))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// An unknown-op request is appendable only by hand: frame a known op,
	// then flip the op byte and recompute the CRC, so the frame is intact
	// and only its grammar is wrong.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := wire.AppendRequest(nil, wire.Request{Op: wire.OpLen, ID: 7, Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	frame[wire.HeaderSize] = 99
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[wire.HeaderSize:], crc32.MakeTable(crc32.Castagnoli)))
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	respPayload, _, err := wire.ReadFrame(conn, scratch)
	if err != nil {
		t.Fatal(err)
	}
	r, err := wire.ParseResponse(respPayload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != wire.StatusBadRequest || r.ID != 7 {
		t.Fatalf("want BadRequest id 7, got %+v", r)
	}
	// The stream survives: a valid request on the same conn still works.
	if r, err := c.Do(wire.Request{Op: wire.OpLen, Tenant: "alpha"}); err != nil || r.Status != wire.StatusOK {
		t.Fatalf("follow-up len: %+v %v", r, err)
	}
	if s.StatsSnapshot().ProtoErrors == 0 {
		t.Fatal("protocol error not counted")
	}
}

// TestConnKeepsHomeShard checks that a connection's inserts stay on one
// shard of its tenant's queue however the collector runs between requests
// (the queue's pooled contexts are forgotten, and re-homed, after two idle
// collections), and that a second connection is homed elsewhere.
func TestConnKeepsHomeShard(t *testing.T) {
	cfg := baseConfig("alpha")
	cfg.Queue.Shards = 4
	s, addr := startServer(t, cfg)
	occupied := func() (on []int) {
		for i, ps := range s.tenants["alpha"].q.Snapshot().PerShard {
			if ps.Len > 0 {
				on = append(on, i)
			}
		}
		return on
	}
	insert := func(c *wire.Client, base uint64) {
		t.Helper()
		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = base + uint64(i)
		}
		for _, req := range []wire.Request{
			{Op: wire.OpInsertBatch, Tenant: "alpha", Keys: keys},
			{Op: wire.OpInsert, Tenant: "alpha", Key: base + 64},
		} {
			if r, err := c.Do(req); err != nil || r.Status != wire.StatusOK {
				t.Fatalf("insert: %+v %v", r, err)
			}
		}
	}
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	insert(c, 0)
	home := occupied()
	if len(home) != 1 {
		t.Fatalf("one connection's inserts landed on shards %v", home)
	}
	for round := uint64(1); round <= 3; round++ {
		runtime.GC()
		runtime.GC()
		insert(c, round<<20)
		if on := occupied(); len(on) != 1 || on[0] != home[0] {
			t.Fatalf("round %d: the connection's inserts are on shards %v, were on %v", round, on, home)
		}
	}
	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	insert(c2, 1<<40)
	if on := occupied(); len(on) != 2 {
		t.Fatalf("a second connection shares the first one's home: shards %v", on)
	}
}

// TestNewValidatesBeforeOpening: a tenant name is a wire field and a
// directory, so New must refuse a bad one — and a caller-supplied Metrics —
// before it opens anything: an error, nothing under WALDir, no group-commit
// goroutine left running.
func TestNewValidatesBeforeOpening(t *testing.T) {
	long := strings.Repeat("x", wire.MaxTenantLen+1)
	for _, tc := range []struct {
		name    string
		tenants []string
		metrics *core.Metrics
	}{
		{"empty", []string{"alpha", ""}, nil},
		{"duplicate", []string{"alpha", "alpha"}, nil},
		{"over-long", []string{"alpha", long}, nil},
		{"slash", []string{"alpha", "a/b"}, nil},
		{"dot", []string{"alpha", "."}, nil},
		{"dotdot", []string{"alpha", ".."}, nil},
		{"caller metrics", []string{"alpha"}, core.NewMetrics()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(tc.tenants...)
			cfg.WALDir = t.TempDir()
			cfg.Queue.Queue.Metrics = tc.metrics
			before := runtime.NumGoroutine()
			if s, _, err := New(cfg); err == nil {
				_ = s.Shutdown()
				t.Fatal("New accepted the config")
			}
			if ents, err := os.ReadDir(cfg.WALDir); err != nil || len(ents) != 0 {
				t.Errorf("WALDir holds %d entries after the refusal (%v)", len(ents), err)
			}
			settleGoroutines(t, before)
		})
	}
}

// TestNewClosesEarlierTenantsOnFailure: when tenant k cannot open, tenants
// 1…k−1 are closed again — their group-commit goroutines must not outlive
// the failed New.
func TestNewClosesEarlierTenantsOnFailure(t *testing.T) {
	cfg := baseConfig("alpha", "beta")
	cfg.WALDir = t.TempDir()
	// beta's directory is a file: its log cannot be opened.
	if err := os.WriteFile(filepath.Join(cfg.WALDir, "beta"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if s, _, err := New(cfg); err == nil {
		_ = s.Shutdown()
		t.Fatal("New opened a tenant whose directory is a file")
	}
	settleGoroutines(t, before)
}

// settleGoroutines waits for the goroutine count to fall back to want.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > want; i++ {
		if i > 2000 {
			t.Fatalf("%d goroutines still running, %d before New", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatsMatchTenantLedgers pins the two ledgers the scrape shows side by
// side: after a mixed run the server's insert/extract totals equal the sum
// of what the tenants' own core metrics counted.
func TestStatsMatchTenantLedgers(t *testing.T) {
	s, addr := startServer(t, baseConfig("alpha", "beta"))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]uint64, 40)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	for i := 0; i < 300; i++ {
		tenant := []string{"alpha", "beta"}[i%2]
		req := wire.Request{Op: wire.OpInsert, Tenant: tenant, Key: uint64(i)}
		switch i % 5 {
		case 1:
			req = wire.Request{Op: wire.OpInsertBatch, Tenant: tenant, Keys: keys}
		case 2:
			req = wire.Request{Op: wire.OpExtractMax, Tenant: tenant}
		case 3:
			req = wire.Request{Op: wire.OpExtractBatch, Tenant: tenant, N: 7}
		}
		if _, err := c.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	sc := s.Scrape()
	var ins, ext uint64
	for _, ts := range sc.Tenants {
		ins += ts.Queue.Merged.InsertsTotal()
		ext += ts.Queue.Merged.ExtractsTotal()
	}
	st := s.StatsSnapshot()
	if st.Inserts == 0 || st.Extracts == 0 {
		t.Fatalf("the run inserted %d and extracted %d", st.Inserts, st.Extracts)
	}
	if st.Inserts != ins || st.Extracts != ext {
		t.Fatalf("server counted %d inserts / %d extracts, tenants %d / %d", st.Inserts, st.Extracts, ins, ext)
	}
	if sc.Queues.InsertsTotal() != ins || sc.Queues.ExtractsTotal() != ext {
		t.Fatalf("merged view has %d / %d, tenants sum to %d / %d", sc.Queues.InsertsTotal(), sc.Queues.ExtractsTotal(), ins, ext)
	}
}
