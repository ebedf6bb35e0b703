package server

import (
	"bytes"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/xrand"
)

// pipeWindow is the requests a pipeClient keeps in flight, as in svc-pipe.
const pipeWindow = 16

// pipeClient is one connection in the svc-pipe shape: windows of
// pipeWindow requests, half inserts and half extracts, on tenant alpha;
// every insert carries val (nil: key-only frames).
type pipeClient struct {
	c    *wire.Client
	rng  *xrand.Rand
	val  []byte
	pend [pipeWindow]*wire.Pending
}

// newPipeClient prefills tenant alpha with 32 Ki elements over c — valued
// when valueLen > 0, key-only otherwise — so extractions never find it
// empty.
func newPipeClient(tb testing.TB, c *wire.Client, valueLen int) *pipeClient {
	tb.Helper()
	p := &pipeClient{c: c, rng: xrand.New(1)}
	keys := make([]uint64, 512)
	var vals [][]byte
	if valueLen > 0 {
		p.val = bytes.Repeat([]byte{0xa5}, valueLen)
		vals = make([][]byte, len(keys))
		for i := range vals {
			vals[i] = p.val
		}
	}
	for n := 0; n < 32<<10; n += len(keys) {
		for i := range keys {
			keys[i] = p.rng.Uint64() >> 16
		}
		resp, err := c.Do(wire.Request{Op: wire.OpInsertBatch, Tenant: "alpha", Keys: keys, Payloads: vals})
		if err != nil || resp.Status != wire.StatusOK {
			tb.Fatalf("prefill: %+v %v", resp, err)
		}
	}
	return p
}

// window starts a window of requests, flushes once and checks every
// response.
func (p *pipeClient) window(tb testing.TB) {
	for i := range p.pend {
		req := wire.Request{Op: wire.OpExtractMax, Tenant: "alpha"}
		if r := p.rng.Uint64(); r&1 == 0 {
			req = wire.Request{Op: wire.OpInsert, Tenant: "alpha", Key: r >> 16, Payload: p.val}
		}
		pd, err := p.c.Start(req)
		if err != nil {
			tb.Fatal(err)
		}
		p.pend[i] = pd
	}
	if err := p.c.Flush(); err != nil {
		tb.Fatal(err)
	}
	for _, pd := range p.pend {
		resp, err := pd.Wait()
		if err != nil || resp.Status != wire.StatusOK || resp.Op == wire.OpExtractMax && len(resp.Payload) != len(p.val) {
			tb.Fatalf("pipelined request: %+v %v", resp, err)
		}
	}
}

// BenchmarkServePipe is svc-pipe on one loopback connection: one op is one
// request.
func BenchmarkServePipe(b *testing.B) {
	for _, bc := range []struct {
		name     string
		valueLen int
	}{{"valued", 64}, {"keyonly", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			_, addr := startServer(b, baseConfig("alpha"))
			c, err := wire.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			p := newPipeClient(b, c, bc.valueLen)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += pipeWindow {
				p.window(b)
			}
		})
	}
}

// TestPipelineAllocs pins the allocation-free request path: after warm-up
// a key-only pipelined request allocates nowhere in wire or server (what
// remains is the queue's node growth), and a valued one allocates little
// more than the two value copies ownership needs — the server's of an
// inserted value, the client's of an extracted one.
func TestPipelineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		name     string
		valueLen int
		maxPerOp float64
	}{{"keyonly", 0, 0.25}, {"valued", 64, 1.5}} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, err := New(baseConfig("alpha"))
			if err != nil {
				t.Fatal(err)
			}
			cli, srv := net.Pipe()
			connDone := make(chan struct{})
			go func() {
				defer close(connDone)
				s.serveConn(srv)
			}()
			c := wire.NewClient(cli)
			defer func() {
				_ = c.Close()
				<-connDone
				if err := s.Shutdown(); err != nil {
					t.Errorf("Shutdown: %v", err)
				}
			}()
			p := newPipeClient(t, c, tc.valueLen)
			for range 256 {
				p.window(t) // handles, scratch and burst buffers reach size
			}
			var perOp float64
			sites := allocSites(func() {
				perOp = testing.AllocsPerRun(256, func() { p.window(t) }) / pipeWindow
			})
			t.Logf("%.3f allocs per pipelined request; sites: %v", perOp, sites)
			if perOp > tc.maxPerOp {
				t.Errorf("%.3f allocs per pipelined request, want <= %.2f; sites: %v", perOp, tc.maxPerOp, sites)
			}
			if tc.valueLen > 0 {
				return
			}
			for site, n := range sites {
				if strings.HasPrefix(site, "repro/internal/wire.") || strings.HasPrefix(site, "repro/internal/server.") {
					t.Errorf("%d allocations in %s", n, site)
				}
			}
		})
	}
}

// allocSites runs f with every allocation profiled and counts what f's
// allocations were, by the first function outside the runtime on their
// stack. Test code is left out: its functions share the package's name.
func allocSites(f func()) map[string]int64 {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	before := memProfile()
	f()
	sites := make(map[string]int64)
	for stk, n := range memProfile() {
		if d := n - before[stk]; d > 0 {
			if site := allocSite(stk); site != "" {
				sites[site] += d
			}
		}
	}
	return sites
}

// memProfile returns the allocation count of every profiled stack. Two
// collections publish every allocation made before the call.
func memProfile() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, 2*n)
		n, ok = runtime.MemProfile(recs, true)
	}
	m := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		m[r.Stack0] += r.AllocObjects
	}
	return m
}

// allocSite names the first non-runtime function on stk, or "" when that
// is test code.
func allocSite(stk [32]uintptr) string {
	frames := runtime.CallersFrames(stk[:])
	for {
		fr, more := frames.Next()
		if fr.Function != "" && !strings.HasPrefix(fr.Function, "runtime.") && !strings.HasPrefix(fr.Function, "internal/runtime/") {
			if strings.HasSuffix(fr.File, "_test.go") {
				return ""
			}
			return fr.Function
		}
		if !more {
			return "runtime"
		}
	}
}

// TestServerSlowConsumer pipelines far more than MaxInflight mixed requests
// at once and reads the responses back slowly, a few at a time: the reader
// must refuse what does not fit and wait for the writer rather than
// buffer without bound, and still answer every request exactly once, in
// request order.
func TestServerSlowConsumer(t *testing.T) {
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
	// Enough elements that no extraction finds the queue empty, whichever
	// inserts are refused.
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(1000 + i)
	}
	s.tenants["alpha"].q.InsertBatch(keys, nil)

	cli, srv := net.Pipe()
	connDone := make(chan struct{})
	go func() {
		defer close(connDone)
		s.serveConn(srv)
	}()

	const requests = 200
	var buf []byte
	for i := 0; i < requests; i++ {
		req := wire.Request{ID: uint32(i), Tenant: "alpha"}
		switch i % 4 {
		case 0:
			req.Op, req.Key, req.Payload = wire.OpInsert, uint64(i), []byte("v")
		case 1:
			req.Op, req.Key = wire.OpInsert, uint64(i)
		case 2:
			req.Op = wire.OpExtractMax
		case 3:
			req.Op = wire.OpLen
		}
		if buf, err = wire.AppendRequest(buf, req); err != nil {
			t.Fatal(err)
		}
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := cli.Write(buf)
		wrote <- err
	}()

	var scratch []byte
	oks, overloads := 0, 0
	for i := 0; i < requests; i++ {
		if i%7 == 0 {
			time.Sleep(time.Millisecond)
		}
		payload, ns, err := wire.ReadFrame(cli, scratch)
		scratch = ns
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		r, err := wire.ParseResponse(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.ID != uint32(i) {
			t.Fatalf("response %d answers request %d", i, r.ID)
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
	if err := <-wrote; err != nil {
		t.Fatal(err)
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
