package harness

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pq"
)

// MetricsSource is the capability interface through which runners and the
// serving tools read a queue's instrumentation. The ZMSQ adapter satisfies
// it; baseline substrates do not, and runners simply skip them.
type MetricsSource interface {
	Snapshot() core.MetricsSnapshot
}

// Snapshot implements MetricsSource on the ZMSQ adapter.
func (z *ZMSQ) Snapshot() core.MetricsSnapshot { return z.Q.Snapshot() }

var _ MetricsSource = (*ZMSQ)(nil)

// SnapshotOf returns q's metrics snapshot if q exposes one AND metrics were
// enabled on it, else nil. Runners use it to attach telemetry to results
// without caring which substrate ran.
func SnapshotOf(q pq.Queue) *core.MetricsSnapshot {
	ms, ok := q.(MetricsSource)
	if !ok {
		return nil
	}
	s := ms.Snapshot()
	if !s.Enabled {
		return nil
	}
	return &s
}

// expvar.Publish panics on duplicate names, so the process-wide "zmsq"
// variable is published once and re-pointed at the latest source.
var (
	expvarOnce sync.Once
	expvarSnap atomic.Pointer[func() core.MetricsSnapshot]
)

// NewMetricsMux builds the observability endpoint set every serving tool
// shares (cmd/zmsqserve, expgrid -metricsaddr):
//
//	/metrics       Prometheus text exposition
//	/metrics.json  the MetricsSnapshot as JSON
//	/debug/vars    expvar (includes the snapshot under "zmsq")
//	/debug/pprof/  the standard pprof handlers
//
// snap is called once per scrape; it must be safe for concurrent use
// (Queue.Snapshot is).
func NewMetricsMux(snap func() core.MetricsSnapshot) *http.ServeMux {
	expvarOnce.Do(func() {
		expvar.Publish("zmsq", expvar.Func(func() any {
			if f := expvarSnap.Load(); f != nil {
				return (*f)()
			}
			return nil
		}))
	})
	expvarSnap.Store(&snap)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = snap().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
