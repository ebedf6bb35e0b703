// Command zmsqd is the multi-tenant network queue server: each tenant is
// one sharded relaxed priority queue, all tenants share a single
// allocation domain, and clients speak the compact CRC-checked binary
// framing of package wire over plain TCP (Insert / InsertBatch /
// ExtractMax / ExtractBatch / Len / Snapshot per tenant). Pipelined
// inserts from one connection are coalesced server-side into InsertBatch
// calls, so the network edge reproduces the batch shape the queue's
// relaxation window is built for; overload is answered per connection
// with a retry-after refusal instead of collapse. DESIGN.md §12 documents
// the frame layout and the backpressure and drain state machines.
//
//	go run ./cmd/zmsqd -addr :8219 -tenants alpha,beta
//	go run ./cmd/zmsqd -tenants alpha -shards 8
//	go run ./cmd/zmsqd -tenants alpha,beta -wal /var/lib/zmsqd
//	go run ./cmd/zmsqd -tenants alpha,beta -metricsaddr :8217
//
// With -wal every tenant is durable: tenant T logs to <dir>/T, existing
// state is recovered on startup, and SIGTERM runs a graceful drain —
// connections are answered with a closed status and the logs are synced
// and closed, so every acked insert is recoverable by the next start.
// Without -wal, SIGTERM drains the tenants and prints what was dropped.
//
// Every tenant is always instrumented; -metricsaddr only opens the HTTP
// listener that serves the scrape: /metrics (the server view),
// /metrics?tenant=T (one tenant, down to its log), /metrics.json and
// /debug/pprof/ — see server.NewMetricsMux and DESIGN.md §12 "Scrape".
//
// Drive it with cmd/zmsqload, the open-loop latency load generator.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/sharded"
)

func main() {
	// The cancellation cause carries the signal's name into the drain log.
	ctx, cancel := context.WithCancelCause(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() { cancel(errors.New((<-sigc).String())) }()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run serves until ctx is cancelled, then drains. Every exit after a
// successful server.New goes through Shutdown, so a durable tenant's log
// is never left open. Exit codes: 0 = drained cleanly, 1 = could not start,
// serve or drain, 2 = bad flags.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zmsqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8219", "TCP listen address for the wire protocol")
		metricsAddr = fs.String("metricsaddr", "", "HTTP listen address for /metrics, /metrics?tenant=T, /metrics.json, /debug/pprof (empty = no listener)")
		tenants     = fs.String("tenants", "default", "comma-separated tenant names")
		shards      = fs.Int("shards", 4, "shards per tenant queue")
		batch       = fs.Int("batch", core.DefaultBatch, "queue relaxation (Config.Batch)")
		walDir      = fs.String("wal", "", "durability directory: per-tenant WAL + recovery on start (empty = volatile)")
		walSnap     = fs.Int64("walsnap", 8<<20, "with -wal: compact each tenant's log past this many bytes (0 = never)")
		inflight    = fs.Int("inflight", server.DefaultMaxInflight, "per-connection inflight bound before StatusOverloaded")
		coalesce    = fs.Int("coalesce", server.DefaultMaxCoalesce, "max pipelined inserts coalesced into one InsertBatch (1 disables)")
		retry       = fs.Duration("retry", server.DefaultRetryAfter, "retry-after hint carried by overload refusals")
		seed        = fs.Uint64("seed", 1, "queue RNG seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	names := strings.Split(*tenants, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}

	qcfg := core.DefaultConfig()
	qcfg.Batch = *batch
	qcfg.Seed = *seed

	s, recovered, err := server.New(server.Config{
		Tenants:          names,
		Queue:            sharded.Config{Shards: *shards, Queue: qcfg},
		WALDir:           *walDir,
		WALSnapshotBytes: *walSnap,
		MaxInflight:      *inflight,
		MaxCoalesce:      *coalesce,
		RetryAfter:       *retry,
	})
	if err != nil {
		fmt.Fprintln(stderr, "zmsqd:", err)
		return 1
	}
	for _, r := range recovered {
		fmt.Fprintf(stdout, "zmsqd: tenant %q recovered %d live keys from %s\n", r.Tenant, r.Live, *walDir)
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "zmsqd:", err)
		_ = s.Shutdown()
		return 1
	}

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fail(err)
		}
		// Closed on the way out, after the drain, so the last scrape can
		// still see the settled counters.
		hs := &http.Server{Handler: server.NewMetricsMux(s.View)}
		defer hs.Close()
		go func() { _ = hs.Serve(mln) }()
		fmt.Fprintf(stdout, "zmsqd: metrics on http://%s/metrics\n", mln.Addr())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "zmsqd: serving %d tenants %v on %s (shards=%d wal=%q)\n",
		len(names), names, ln.Addr(), *shards, *walDir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintf(stdout, "zmsqd: %v — draining\n", context.Cause(ctx))
	case err := <-serveErr:
		return fail(fmt.Errorf("serve: %w", err))
	}

	// Graceful drain: refuse new work, answer in-flight requests with a
	// closed status, flush + sync + close every durable tenant's log. The
	// final stats print after the drain so the counters are settled.
	code := 0
	start := time.Now()
	if err := s.Shutdown(); err != nil {
		fmt.Fprintln(stderr, "zmsqd: shutdown:", err)
		code = 1
	}
	<-serveErr
	st := s.StatsSnapshot()
	fmt.Fprintf(stdout, "zmsqd: drained in %v — %d conns, %d ops (%d inserts, %d extracts), %d overload refusals, %d proto errors, insert-batch p50 %d (mean %.1f over %d batches)\n",
		time.Since(start).Round(time.Millisecond), st.Conns, st.Ops, st.Inserts, st.Extracts,
		st.Overloads, st.ProtoErrors, st.BatchP50, st.BatchMean, st.Batches)
	for _, name := range names {
		fmt.Fprintf(stdout, "zmsqd: tenant %q final len %d\n", name, st.Tenants[name])
	}
	return code
}
