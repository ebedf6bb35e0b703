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
//
// With -wal every tenant is durable: tenant T logs to <dir>/T, existing
// state is recovered on startup, and SIGTERM runs a graceful drain —
// connections are answered with a closed status and the logs are synced
// and closed, so every acked insert is recoverable by the next start.
// Without -wal, SIGTERM drains the tenants and prints what was dropped.
//
// Drive it with cmd/zmsqload, the open-loop latency load generator.
package main

import (
	"flag"
	"fmt"
	"net"
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
	var (
		addr     = flag.String("addr", ":8219", "TCP listen address for the wire protocol")
		tenants  = flag.String("tenants", "default", "comma-separated tenant names")
		shards   = flag.Int("shards", 4, "shards per tenant queue")
		batch    = flag.Int("batch", core.DefaultBatch, "queue relaxation (Config.Batch)")
		array    = flag.Bool("array", false, "use array sets instead of lists (Config.SetMode)")
		walDir   = flag.String("wal", "", "durability directory: per-tenant WAL + recovery on start (empty = volatile)")
		walSnap  = flag.Int64("walsnap", 8<<20, "with -wal: compact each tenant's log past this many bytes (0 = never)")
		inflight = flag.Int("inflight", server.DefaultMaxInflight, "per-connection inflight bound before StatusOverloaded")
		coalesce = flag.Int("coalesce", server.DefaultMaxCoalesce, "max pipelined inserts coalesced into one InsertBatch (1 disables)")
		retry    = flag.Duration("retry", server.DefaultRetryAfter, "retry-after hint carried by overload refusals")
		seed     = flag.Uint64("seed", 1, "queue RNG seed")
	)
	flag.Parse()

	names := strings.Split(*tenants, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}

	qcfg := core.DefaultConfig()
	qcfg.Batch = *batch
	qcfg.Seed = *seed
	if *array {
		qcfg.SetMode = core.SetModeArray
	}

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
		fmt.Fprintln(os.Stderr, "zmsqd:", err)
		os.Exit(1)
	}
	for _, r := range recovered {
		fmt.Printf("zmsqd: tenant %q recovered %d live keys from %s\n", r.Tenant, r.Live, *walDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zmsqd:", err)
		os.Exit(1)
	}
	fmt.Printf("zmsqd: serving %d tenants %v on %s (shards=%d wal=%q)\n",
		len(names), names, ln.Addr(), *shards, *walDir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Printf("zmsqd: %v — draining\n", sig)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "zmsqd: serve:", err)
		_ = s.Shutdown()
		os.Exit(1)
	}

	// Graceful drain: refuse new work, answer in-flight requests with a
	// closed status, flush + sync + close every durable tenant's log. The
	// final stats print after the drain so the counters are settled.
	start := time.Now()
	if err := s.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "zmsqd: shutdown:", err)
	}
	<-serveErr
	st := s.StatsSnapshot()
	fmt.Printf("zmsqd: drained in %v — %d conns, %d ops (%d inserts, %d extracts), %d overload refusals, %d proto errors, insert-batch p50 %d (mean %.1f over %d batches)\n",
		time.Since(start).Round(time.Millisecond), st.Conns, st.Ops, st.Inserts, st.Extracts,
		st.Overloads, st.ProtoErrors, st.BatchP50, st.BatchMean, st.Batches)
	for _, name := range names {
		fmt.Printf("zmsqd: tenant %q final len %d\n", name, st.Tenants[name])
	}
}
