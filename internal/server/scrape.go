package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sharded"
	"repro/internal/wal"
)

// TenantScrape is one tenant's view, served at /metrics?tenant=T: its
// queue's counters, rank-error sample and sharded telemetry, plus its
// log's activity when the tenant is durable.
type TenantScrape struct {
	Queue sharded.Snapshot `json:"queue"`
	WAL   *wal.Stats       `json:"wal,omitempty"`
}

// WritePrometheus renders the tenant view: zmsq_*, zmsq_sharded_* and, for
// a durable tenant, zmsq_wal_*.
func (t TenantScrape) WritePrometheus(w io.Writer) error {
	if err := t.Queue.WritePrometheus(w); err != nil || t.WAL == nil {
		return err
	}
	return t.WAL.WritePrometheus(w)
}

func (t *tenant) scrape() TenantScrape {
	ts := TenantScrape{Queue: t.q.Snapshot()}
	if st, ok := t.q.WALStats(); ok {
		ts.WAL = &st
	}
	return ts
}

// Scrape is the server's whole observability tree, socket to fsync; it is
// the /metrics.json body, and its WritePrometheus is the server view that
// /metrics serves.
type Scrape struct {
	Server          Stats                     `json:"server"`
	InsertBatchSize metrics.HistogramSnapshot `json:"insert_batch_size"`
	// Queues is every tenant's merged queue snapshot folded into one.
	Queues  core.MetricsSnapshot    `json:"queues"`
	Tenants map[string]TenantScrape `json:"tenants"`
}

// Scrape collects the current tree.
func (s *Server) Scrape() Scrape {
	sc := Scrape{
		Server:          s.StatsSnapshot(),
		InsertBatchSize: s.batchSizes.Snapshot(),
		Tenants:         make(map[string]TenantScrape, len(s.order)),
	}
	for _, name := range s.order {
		ts := s.tenants[name].scrape()
		sc.Tenants[name] = ts
		sc.Queues = sc.Queues.Merge(ts.Queue.Merged)
	}
	return sc
}

// WritePrometheus renders the server view: the zmsqd_* counters and the
// coalescing histogram, then the all-tenant zmsq_* sum.
func (sc Scrape) WritePrometheus(w io.Writer) error {
	p := metrics.NewPromWriter(w)
	p.Counter("zmsqd_conns_total", "connections accepted", sc.Server.Conns)
	p.Counter("zmsqd_ops_total", "requests executed (refusals excluded)", sc.Server.Ops)
	p.Counter("zmsqd_inserts_total", "keys inserted (batch members each count)", sc.Server.Inserts)
	p.Counter("zmsqd_extracts_total", "keys extracted", sc.Server.Extracts)
	p.Counter("zmsqd_overloads_total", "requests refused by admission control", sc.Server.Overloads)
	p.Counter("zmsqd_proto_errors_total", "ungrammatical or torn frames received", sc.Server.ProtoErrors)
	p.Histogram("zmsqd_insert_batch_size", "keys per executed insert batch (singletons included)", sc.InsertBatchSize)
	if err := p.Err(); err != nil {
		return err
	}
	return sc.Queues.WritePrometheus(w)
}

// View is one renderable scrape: Prometheus text through WritePrometheus,
// JSON through its exported fields.
type View interface {
	WritePrometheus(w io.Writer) error
}

// View is the server's NewMetricsMux source: "" selects the server view, a
// tenant name that tenant's.
func (s *Server) View(tenant string) (View, bool) {
	if tenant == "" {
		return s.Scrape(), true
	}
	t, ok := s.tenants[tenant]
	if !ok {
		return nil, false
	}
	return t.scrape(), true
}

// NewMetricsMux builds the observability endpoints both serving surfaces
// share (zmsqd -metricsaddr, expgrid -metricsaddr):
//
//	/metrics           view("") as Prometheus text exposition
//	/metrics?tenant=T  view(T); 404 when view reports no such tenant
//	/metrics.json      view("") as JSON
//	/debug/pprof/      the standard pprof handlers
//
// Tenants are separate responses, not labels: PromWriter emits a # TYPE line
// per series, and repeating one per tenant is invalid exposition. view is
// called once per scrape and must be safe for concurrent use.
func NewMetricsMux(view func(tenant string) (View, bool)) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		v, ok := view(r.URL.Query().Get("tenant"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = v.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		v, _ := view("")
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
