// Package server implements zmsqd, the multi-tenant network front-end
// over the sharded relaxed priority queue. Each tenant is one
// sharded.Queue; all tenants share a single core.AllocDomain, so N
// tenants cost one hazard-pointer domain, one freelist, and one set of
// node caches instead of N. The wire protocol (package wire) is a
// compact CRC-checked binary framing over TCP; requests pipeline, and
// the per-connection read loop coalesces consecutive same-tenant Insert
// frames into one InsertBatch — the network edge recreates the batch
// shape the queue's relaxation window is built around.
//
// Admission control is per connection: each connection owns a bounded
// response queue, and a request that would overflow it is answered with
// StatusOverloaded plus a retry-after hint instead of being executed.
// Back-pressure therefore degrades one pipelining client, not the
// server.
//
// Shutdown is a graceful drain (see Server.Shutdown): stop accepting,
// answer in-flight requests with StatusClosed, then flush + sync + close
// each durable tenant's WAL so every acked insert is recoverable, and
// CloseAndDrain the volatile tenants. DESIGN.md §12 documents the frame
// layout, ownership, and the drain sequence.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sharded"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Tenants names the queues the server exposes; requests for any other
	// tenant get StatusBadTenant. At least one tenant is required.
	Tenants []string

	// Queue configures every tenant's sharded.Queue (shard count, core
	// config). Per-tenant durability is derived from WALDir, not from
	// Queue.Queue.Durability, which must be unset — as must
	// Queue.Queue.Metrics: every tenant is given its own (see Scrape).
	Queue sharded.Config

	// WALDir, when non-empty, makes every tenant durable: tenant T logs to
	// WALDir/T (recovered on startup when it exists). Empty runs volatile.
	WALDir string

	// WALSnapshotBytes is the per-tenant log size that triggers an online
	// snapshot compaction (0 = never). Only meaningful with WALDir.
	WALSnapshotBytes int64

	// MaxInflight bounds each connection's unanswered responses; a request
	// that would exceed it is refused with StatusOverloaded. 0 means
	// DefaultMaxInflight.
	MaxInflight int

	// MaxCoalesce caps how many consecutive pipelined same-tenant Insert
	// frames one read pass folds into a single InsertBatch. 0 means
	// DefaultMaxCoalesce; 1 disables coalescing.
	MaxCoalesce int

	// RetryAfter is the backoff hint carried by StatusOverloaded
	// responses. 0 means DefaultRetryAfter.
	RetryAfter time.Duration
}

// Defaults for the zero values of Config.
const (
	// DefaultMaxInflight is the per-connection response-queue bound.
	DefaultMaxInflight = 1024
	// DefaultMaxCoalesce caps one coalesced InsertBatch.
	DefaultMaxCoalesce = 128
	// DefaultRetryAfter is the advisory backoff on StatusOverloaded.
	DefaultRetryAfter = 50 * time.Millisecond
)

// tenant is one named queue plus its durability bookkeeping. Tenants
// hold []byte values — opaque client payloads carried by the wire
// protocol's valued frames and, for durable tenants, logged through
// wal.BytesCodec so recovery restores them byte-exactly. Key-only
// clients pay nothing: a nil payload inserts a nil value and logs a
// key-only v1 record.
type tenant struct {
	name    string
	q       *sharded.Queue[[]byte]
	durable bool
}

// Server is a running zmsqd instance. Build with New, serve with Serve,
// stop with Shutdown.
type Server struct {
	cfg     Config
	tenants map[string]*tenant
	order   []string // Tenants in config order, for deterministic reports

	ln       net.Listener
	mu       sync.Mutex // guards ln, conns
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	done     chan struct{}

	// Telemetry, sharded by connection id. batchSizes records every insert
	// execution's batch size — singletons included — so its p50 measures
	// how much pipelining the coalescer actually captures.
	batchSizes  metrics.Histogram
	opsTotal    metrics.Counter
	inserts     metrics.Counter
	extracts    metrics.Counter
	overloads   metrics.Counter
	protoErrors metrics.Counter
	// connSeq numbers accepted connections: the last id is also the count.
	connSeq atomic.Uint32
	// domMet observes the shared allocation domain, whose hazard scans
	// belong to no one tenant; only its HazardScans is ever written.
	domMet *core.Metrics
}

// RecoveredTenant reports one tenant's startup recovery.
type RecoveredTenant struct {
	// Tenant is the tenant name.
	Tenant string
	// Live is the number of live keys recovered from snapshot + log.
	Live int
}

// New builds the server: one shared allocation domain, then one
// sharded.Open per tenant over it, each with its own core.Metrics — the
// scrape is how an operator sees the relaxation bound holding, so it is not
// switchable. With cfg.WALDir set, tenants with existing state recover it
// (the returned RecoveredTenant list says who and how much) and all tenants
// log from the first insert on. Every name is validated before anything is
// opened, and a tenant that fails to open closes the ones before it.
func New(cfg Config) (*Server, []RecoveredTenant, error) {
	if len(cfg.Tenants) == 0 {
		return nil, nil, errors.New("server: at least one tenant required")
	}
	if q := cfg.Queue.Queue; q.Durability != nil || q.WAL != nil || q.Metrics != nil {
		return nil, nil, errors.New("server: Queue.Queue.Durability/WAL/Metrics must be unset — durability (Config.WALDir) and metrics are per tenant")
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxCoalesce == 0 {
		cfg.MaxCoalesce = DefaultMaxCoalesce
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if err := cfg.Queue.Validate(); err != nil {
		return nil, nil, fmt.Errorf("server: queue config: %w", err)
	}
	// A tenant name is both a wire field and a directory under WALDir.
	seen := make(map[string]bool, len(cfg.Tenants))
	for _, name := range cfg.Tenants {
		if name == "." || name == ".." || name != filepath.Base(name) || len(name) > wire.MaxTenantLen || seen[name] {
			return nil, nil, fmt.Errorf("server: tenant %q: names must be unique, non-empty plain directory names of at most %d bytes", name, wire.MaxTenantLen)
		}
		seen[name] = true
	}

	s := &Server{
		cfg:     cfg,
		tenants: make(map[string]*tenant, len(cfg.Tenants)),
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
		domMet:  core.NewMetrics(),
	}
	dcfg := cfg.Queue.Queue
	dcfg.Metrics = s.domMet
	ad := core.NewAllocDomain[[]byte](dcfg)
	var recovered []RecoveredTenant
	for _, name := range cfg.Tenants {
		t := &tenant{name: name, durable: cfg.WALDir != ""}
		qcfg := cfg.Queue
		qcfg.Queue.Metrics = core.NewMetrics()
		if t.durable {
			qcfg.Queue.Durability = &core.DurabilityConfig{
				WAL: true, Dir: filepath.Join(cfg.WALDir, name), GroupCommit: wal.DefaultGroupCommit,
				SnapshotBytes: cfg.WALSnapshotBytes,
			}
		}
		q, st, err := sharded.Open(qcfg, core.Options[[]byte]{Domain: ad, Codec: wal.BytesCodec{}})
		if err != nil {
			_ = s.closeTenants() // the open failure is the error to report
			return nil, nil, fmt.Errorf("server: tenant %q: %w", name, err)
		}
		t.q = q
		if st != nil && st.NextLSN > 1 { // the directory has been logged to before
			recovered = append(recovered, RecoveredTenant{Tenant: name, Live: st.Live()})
		}
		s.tenants[name] = t
		s.order = append(s.order, name)
	}
	return s, recovered, nil
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil after a clean shutdown, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	draining := s.draining.Load()
	s.mu.Unlock()
	if draining {
		// Shutdown won the race before the listener was registered; close
		// it here so neither side leaks it.
		_ = ln.Close()
		return nil
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Shutdown gracefully drains the server: stop accepting, close client
// connections (their in-flight requests get StatusClosed), then make
// every tenant's state safe — durable tenants sync and close their logs
// (every acked key is recoverable on the next start); volatile tenants
// are closed and drained. Shutdown is idempotent; only the first call
// does the work.
func (s *Server) Shutdown() error {
	if !s.draining.CompareAndSwap(false, true) {
		<-s.done
		return nil
	}
	defer close(s.done)
	s.mu.Lock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	return s.closeTenants()
}

// closeTenants makes every built tenant's state safe and reports the first
// failure: durable tenants sync and close their logs, volatile ones drain.
func (s *Server) closeTenants() error {
	var firstErr error
	for _, name := range s.order {
		t := s.tenants[name]
		if t.durable {
			// Sync before closing the log, and never drain the elements —
			// they stay logged so the next start recovers them.
			if err := t.q.SyncWAL(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("server: tenant %q sync: %w", name, err)
			}
			if err := t.q.CloseWAL(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("server: tenant %q close: %w", name, err)
			}
			t.q.Close()
		} else {
			t.q.CloseAndDrain()
		}
	}
	return firstErr
}

// Stats is a point-in-time telemetry snapshot, also served to clients as
// the OpSnapshot JSON body.
type Stats struct {
	// Tenants maps tenant name to current queue length.
	Tenants map[string]int `json:"tenants"`
	// Conns is the number of connections accepted since start.
	Conns uint64 `json:"conns"`
	// Ops counts executed requests (refusals excluded).
	Ops uint64 `json:"ops"`
	// Inserts counts inserted keys (batch members each count).
	Inserts uint64 `json:"inserts"`
	// Extracts counts extracted keys.
	Extracts uint64 `json:"extracts"`
	// Overloads counts requests refused by admission control.
	Overloads uint64 `json:"overloads"`
	// ProtoErrors counts ungrammatical or torn frames received.
	ProtoErrors uint64 `json:"proto_errors"`
	// BatchP50 is the median executed insert-batch size; above 1 the
	// connection coalescer is capturing pipelined inserts.
	BatchP50 uint64 `json:"batch_p50"`
	// BatchMean is the mean executed insert-batch size.
	BatchMean float64 `json:"batch_mean"`
	// Batches counts executed insert batches (singletons included).
	Batches uint64 `json:"batches"`
	// Draining reports whether Shutdown has begun.
	Draining bool `json:"draining"`
}

// StatsSnapshot collects the current Stats.
func (s *Server) StatsSnapshot() Stats {
	hs := s.batchSizes.Snapshot()
	st := Stats{
		Tenants:     make(map[string]int, len(s.order)),
		Conns:       uint64(s.connSeq.Load()),
		Ops:         s.opsTotal.Value(),
		Inserts:     s.inserts.Value(),
		Extracts:    s.extracts.Value(),
		Overloads:   s.overloads.Value(),
		ProtoErrors: s.protoErrors.Value(),
		BatchP50:    hs.Quantile(0.50),
		BatchMean:   hs.Mean(),
		Batches:     hs.Count,
		Draining:    s.draining.Load(),
	}
	for _, name := range s.order {
		st.Tenants[name] = s.tenants[name].q.Len()
	}
	return st
}

func (s *Server) statsJSON() []byte {
	b, err := json.Marshal(s.StatsSnapshot())
	if err != nil {
		return []byte(`{}`)
	}
	return b
}
