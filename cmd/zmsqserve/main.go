// Command zmsqserve runs a metrics-enabled ZMSQ — or, with -shards N, the
// sharded front-end over N ZMSQ shards — under a continuous synthetic
// workload and serves the observability endpoints:
//
//	/metrics       Prometheus text exposition (scrape this)
//	/metrics.json  the full MetricsSnapshot as JSON
//	/debug/vars    expvar (snapshot under "zmsq")
//	/debug/pprof/  CPU/heap/goroutine profiling
//
// It exists so the instrumentation can be watched live — point a browser
// or `curl` at it, or scrape it from Prometheus — without wiring the queue
// into an application first:
//
//	go run ./cmd/zmsqserve -addr :8217 -threads 8 -mix 50
//	go run ./cmd/zmsqserve -shards 4        # sharded; serves the merged view
//	go run ./cmd/zmsqserve -wal /var/lib/zmsq  # durable: WAL + recovery
//	curl localhost:8217/metrics
//
// With -wal the queue is durable: on startup, whatever the directory holds
// is recovered (snapshot + log replay) and the workload resumes on top of
// it; on SIGTERM the queue is closed, drained — every drained element
// still logged — and the log synced and closed, so the next start recovers
// an empty (fully drained) state and prefills again. Kill -9 it instead and
// the next start replays to the last group commit.
//
// The queue is driven entirely through the pq capability interfaces
// (pq.Queue, pq.Closer, pq.ContextExtractor, harness.MetricsSource), so the
// single and sharded substrates share every code path below; only the
// constructor differs. The workload is the harness's throughput mix applied
// forever; SIGINT/SIGTERM stops the workers, drains the queue through
// ExtractMaxContext, and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pq"
	"repro/internal/sharded"
	"repro/internal/wal"
	"repro/internal/xrand"
)

func main() {
	var (
		addr    = flag.String("addr", ":8217", "listen address for the metrics endpoints")
		threads = flag.Int("threads", 4, "workload goroutines (0 serves an idle queue)")
		mix     = flag.Int("mix", 50, "insert percentage of the workload mix")
		prefill = flag.Int("prefill", 1<<16, "elements inserted before the workload starts")
		batch   = flag.Int("batch", core.DefaultBatch, "queue relaxation (Config.Batch)")
		shards  = flag.Int("shards", 0, "shard across this many ZMSQ shards (0 = single queue)")
		array   = flag.Bool("array", false, "use array sets instead of lists (Config.SetMode)")
		leaky   = flag.Bool("leaky", false, "disable hazard-pointer memory safety")
		pace    = flag.Duration("pace", 50*time.Microsecond, "sleep between worker operations (0 = flat out)")
		seed    = flag.Uint64("seed", 1, "workload RNG seed")
		walDir  = flag.String("wal", "", "durability directory: write-ahead log + recovery on start (empty = volatile)")
		walSnap = flag.Int64("walsnap", 8<<20, "with -wal: compact the log with an online snapshot past this many bytes (0 = never)")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Batch = *batch
	if *array {
		cfg.SetMode = core.SetModeArray
	}
	cfg.Leaky = *leaky
	cfg.Seed = *seed
	cfg.Metrics = core.NewMetrics()
	if *walDir != "" {
		cfg.Durability = &core.DurabilityConfig{
			WAL: true, Dir: *walDir, GroupCommit: wal.DefaultGroupCommit, SnapshotBytes: *walSnap,
		}
	}

	// Build the queue. Open recovers whatever a durable directory holds, so
	// a restart resumes where the last run's group commit left off. The
	// no-op fallbacks keep the volatile path free of durability branches
	// below.
	var (
		q        pq.Queue
		syncWAL  = func() error { return nil }
		closeWAL = func() error { return nil }
		walStats = func() (wal.Stats, bool) { return wal.Stats{}, false }
		st       *wal.State
	)
	if *shards > 0 {
		sq, sst, err := sharded.Open(sharded.Config{Shards: *shards, Queue: cfg}, core.Options[struct{}]{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmsqserve:", err)
			os.Exit(1)
		}
		q, st = harness.WrapSharded(sq, "zmsq-sharded"), sst
		syncWAL, closeWAL, walStats = sq.SyncWAL, sq.CloseWAL, sq.WALStats
	} else {
		cq, cst, err := core.Open(cfg, core.Options[struct{}]{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmsqserve:", err)
			os.Exit(1)
		}
		q, st = harness.WrapZMSQ(cq, harness.VariantName(cfg)), cst
		syncWAL, closeWAL, walStats = cq.SyncWAL, cq.CloseWAL, cq.WALStats
	}
	src := q.(harness.MetricsSource)

	if st != nil {
		fmt.Printf("zmsqserve: recovered %d live keys from %s (snapshot lsn %d + %d log records, %d torn bytes dropped)\n",
			st.Live(), *walDir, st.SnapshotLSN, st.Records, st.TornBytes)
	}
	if st == nil || st.Live() == 0 {
		// Only when nothing came back: a recovered queue already holds its
		// elements.
		r := xrand.New(*seed ^ 0xfeed)
		for i := 0; i < *prefill; i++ {
			q.Insert(r.Uint64() >> 16)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var wg sync.WaitGroup
	for w := 0; w < *threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(*seed + uint64(w)*0x9e3779b97f4a7c15)
			for ctx.Err() == nil {
				if int(rng.Uint64n(100)) < *mix {
					q.Insert(rng.Uint64() >> 16)
				} else {
					q.ExtractMax()
				}
				if *pace > 0 {
					time.Sleep(*pace)
				}
			}
		}(w)
	}

	srv := &http.Server{Addr: *addr, Handler: harness.NewMetricsMux(src.Snapshot)}
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()

	fmt.Printf("zmsqserve: serving /metrics /metrics.json /debug/vars /debug/pprof on %s (queue=%s threads=%d mix=%d%% batch=%d shards=%d)\n",
		*addr, pq.NameOf(q, "queue"), *threads, *mix, *batch, *shards)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "zmsqserve:", err)
		os.Exit(1)
	}
	wg.Wait()

	// Graceful shutdown: close, then drain whatever the workload left
	// queued through the context-aware extraction capability — the same
	// loop works for both substrates, classifying outcomes with the pq
	// sentinels rather than concrete queue types.
	if c, ok := q.(pq.Closer); ok {
		c.Close()
	}
	drained := 0
	if ce, ok := q.(pq.ContextExtractor); ok {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		for {
			_, err := ce.ExtractMaxContext(dctx)
			if err != nil {
				if !pq.IsClosed(err) && !pq.IsEmpty(err) && dctx.Err() == nil {
					fmt.Fprintln(os.Stderr, "zmsqserve: drain:", err)
				}
				break
			}
			drained++
		}
		cancel()
	}

	// Durable shutdown: the drain above logged its extracts; sync them and
	// close the log so the next start recovers the drained (empty) state.
	if *walDir != "" {
		if err := syncWAL(); err != nil {
			fmt.Fprintln(os.Stderr, "zmsqserve: wal sync:", err)
		}
		if ws, ok := walStats(); ok {
			perSync := float64(0)
			if ws.Syncs > 0 {
				perSync = float64(ws.Ops) / float64(ws.Syncs)
			}
			fmt.Printf("zmsqserve: wal — %d ops in %d records, %d syncs (%.1f ops/sync), %d snapshots, durable lsn %d\n",
				ws.Ops, ws.Records, ws.Syncs, perSync, ws.Snapshots, ws.DurableLSN)
		}
		if err := closeWAL(); err != nil {
			fmt.Fprintln(os.Stderr, "zmsqserve: wal close:", err)
		}
	}

	snap := src.Snapshot()
	fmt.Printf("zmsqserve: done — %d inserts, %d extracts, %d refills, %d drained at shutdown, node-cache hit rate %.3f\n",
		snap.InsertsTotal(), snap.ExtractsTotal(), snap.PoolRefills, drained, snap.NodeCacheHitRate())
	if sq, ok := q.(*harness.Sharded); ok {
		ss := sq.ShardSnapshot()
		fmt.Printf("zmsqserve: sharded — %d shards, %d full sweeps, %d steal sweeps, %d steals, imbalance %.3f\n",
			ss.Shards, ss.FullSweeps, ss.StealSweeps, ss.Steals, ss.Imbalance)
	}
}
