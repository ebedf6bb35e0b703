package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/pq"
	"repro/internal/sharded"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// The ladder and the layer probes. They are the same whichever workload a
// traced run names: each drives one layer with the steady stream (or, for
// wal and server, with a short instance of the workload built on it), so
// a layer's numbers can be compared across commits without the other
// layers' changes mixed in.
//
// A rung's self time is its ns/op minus the rung beneath. The rungs run
// the stream on ONE goroutine: per-operation cost then adds up layer by
// layer, where at nWorkers goroutines sharding would relieve contention
// and hide its own cost. Contention is what the end-to-end workloads and
// the multi-worker core and sharded probes below measure.

// singleProc runs f with GOMAXPROCS lowered to 1. The queues take their
// per-operation context from a sync.Pool, which is per-P: on one P a
// lone goroutine gets the same context, and so the same random stream,
// every time, which makes rank error a pure function of the seed.
func singleProc(f func()) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// probes accumulates per-layer metrics and the checks made on the way.
type probes struct {
	c                 *runConfig
	metrics           []metric
	attempted, failed int64
	// The rungs beneath the server, kept for its self time.
	codecNs, shardedNs float64
}

func (p *probes) add(name string, v float64, unit string) {
	p.metrics = append(p.metrics, metric{name, v, unit})
}

func (p *probes) settle(attempted, failed int64, err error, what string) error {
	p.attempted += attempted
	p.failed += failed
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// runProbes measures every per-layer metric except trace.overhead_pct.
func runProbes(c *runConfig) (*probes, error) {
	p := &probes{c: c}
	steps := []func() error{p.ladder, p.coreDetail, p.shardedDetail, p.walProbe, p.serverProbe}
	for _, step := range steps {
		runtime.GC()
		if err := step(); err != nil {
			return p, err
		}
	}
	return p, nil
}

// ladder times the steady stream on each in-process rung and ranks it on
// the three queue rungs.
func (p *probes) ladder() error {
	sz, seed := p.c.sz, p.c.seed
	// Each rung is timed ladderReps times, the rungs interleaved, and
	// reported as the median, so that a disturbance lasting one pass does
	// not turn a self time negative.
	var ns [4][]float64
	rung := func(i int, q queue) error {
		t, failed, err := timeMix(q, seed, sz.live, sz.ladderWarm, sz.ladderOps)
		ns[i] = append(ns[i], t)
		return p.settle(int64(sz.live)+sz.ladderWarm+sz.ladderOps, failed, err, "ladder rung")
	}
	for range ladderReps {
		if err := rung(0, heapQueue{pq.NewGlobalHeap(sz.live)}); err != nil {
			return err
		}
		cq := core.New[struct{}](core.DefaultConfig())
		err := rung(1, cq)
		cq.Close()
		if err != nil {
			return err
		}
		sq := sharded.New[struct{}](zmsqdQueue())
		err = rung(2, sq)
		sq.Close()
		if err != nil {
			return err
		}
		if err := p.durableRung(func(q queue) error { return rung(3, q) }); err != nil {
			return err
		}
	}
	heapNs, coreNs, shardedNs := median(ns[0]), median(ns[1]), median(ns[2])
	// Self times are medians of the differences within a repetition, which
	// cancels whatever drifted between repetitions.
	diff := func(upper, lower int) float64 {
		d := make([]float64, ladderReps)
		for i := range d {
			d[i] = ns[upper][i] - ns[lower][i]
		}
		return median(d)
	}
	p.codecNs, p.shardedNs = p.wireCodec(), shardedNs

	p.add("pq.heap_ns_per_op", heapNs, "ns")
	p.add("core.steady_ns_per_op", coreNs, "ns")
	p.add("sharded.steady_ns_per_op", shardedNs, "ns")
	p.add("sharded.self_ns_per_op", diff(2, 1), "ns")
	p.add("wal.append_self_ns_per_op", diff(3, 2), "ns")
	p.add("wire.codec_ns_per_op", p.codecNs, "ns")

	var ranks [3]rankResult
	singleProc(func() {
		ranks[0] = mixRank(heapQueue{pq.NewGlobalHeap(sz.live)}, seed, sz.live, int(sz.ladderWarm), int(sz.ladderOps))
		cq := core.New[struct{}](core.DefaultConfig())
		ranks[1] = mixRank(cq, seed, sz.live, int(sz.ladderWarm), int(sz.ladderOps))
		cq.Close()
		sq := sharded.New[struct{}](zmsqdQueue())
		ranks[2] = mixRank(sq, seed, sz.live, int(sz.ladderWarm), int(sz.ladderOps))
		sq.Close()
	})
	for i, name := range []string{"pq", "core", "sharded"} {
		p.failed += ranks[i].misses
		p.add(name+".rank_err_mean", ranks[i].mean, "ranks")
	}
	return nil
}

// ladderReps is how many times each in-process rung is timed.
const ladderReps = 3

// durableRung runs f on a sharded queue with a key-only log attached, in
// a fresh directory.
func (p *probes) durableRung(f func(queue) error) error {
	dir, err := walDir(p.c.walBase, "rung-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	q, err := sharded.NewDurable[struct{}](durableConfig(dir))
	if err != nil {
		return err
	}
	err = f(q)
	if serr := q.SyncWAL(); err == nil && serr != nil {
		err = fmt.Errorf("durable rung sync: %w", serr)
	}
	q.CloseWAL()
	q.Close()
	return err
}

// wireCodec runs the stream's requests and their responses through the
// wire codec in memory and returns the four stages' total ns per request.
func (p *probes) wireCodec() float64 {
	const block = 1024
	n := int(p.c.sz.ladderOps)
	rng := xrand.New(workerSeed(p.c.seed, -5, 0))
	reqs := make([]wire.Request, block)
	resps := make([]wire.Response, block)
	value := loadgen.ValueFor(1, valueLen) // every extraction's reply carries one
	var reqBuf, respBuf, scratch []byte
	var keyScratch []uint64
	var stage [4]int64 // encode request, decode request, encode response, decode response
	var reqBytes, generated int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for done := 0; done < n; done += block {
		for i := range reqs {
			k, isInsert := key48(rng.Uint64())
			reqs[i] = wire.Request{Op: wire.OpExtractMax, ID: uint32(i), Tenant: tenantName(0)}
			if isInsert {
				reqs[i] = wire.Request{Op: wire.OpInsert, ID: uint32(i), Tenant: tenantName(0), Key: k, Payload: loadgen.ValueFor(k, valueLen)}
				generated++ // one allocation that is the input's, not the codec's
			}
		}
		t0 := now()
		reqBuf = reqBuf[:0]
		for i := range reqs {
			reqBuf, _ = wire.AppendRequest(reqBuf, reqs[i])
		}
		t1 := now()
		rd := bytes.NewReader(reqBuf)
		for i := range reqs {
			payload, s, err := wire.ReadFrame(rd, scratch)
			scratch = s
			var req wire.Request
			if err == nil {
				req, err = wire.ParseRequest(payload, keyScratch[:0])
			}
			if err != nil || req.ID != reqs[i].ID || req.Key != reqs[i].Key {
				p.failed++
			}
			// Answer as the server would: an insert gets a bare OK, an
			// extraction a key and its value.
			resps[i] = wire.Response{Status: wire.StatusOK, ID: req.ID, Op: req.Op}
			if req.Op == wire.OpExtractMax {
				resps[i].Value, resps[i].Payload = uint64(i), value
			}
		}
		t2 := now()
		respBuf = respBuf[:0]
		for i := range resps {
			respBuf = wire.AppendResponse(respBuf, resps[i])
		}
		t3 := now()
		rd = bytes.NewReader(respBuf)
		for i := range resps {
			payload, s, err := wire.ReadFrame(rd, scratch)
			scratch = s
			var resp wire.Response
			if err == nil {
				resp, err = wire.ParseResponse(payload, keyScratch[:0])
			}
			if err != nil || resp.ID != resps[i].ID || resp.Value != resps[i].Value {
				p.failed++
			}
		}
		t4 := now()
		stage[0] += t1 - t0
		stage[1] += t2 - t1
		stage[2] += t3 - t2
		stage[3] += t4 - t3
		reqBytes += int64(len(reqBuf))
	}
	runtime.ReadMemStats(&ms1)
	p.attempted += int64(n)
	per := func(x int64) float64 { return float64(x) / float64(n) }
	p.add("wire.encode_req_ns", per(stage[0]), "ns")
	p.add("wire.decode_req_ns", per(stage[1]), "ns")
	p.add("wire.encode_resp_ns", per(stage[2]), "ns")
	p.add("wire.decode_resp_ns", per(stage[3]), "ns")
	p.add("wire.allocs_per_op", per(int64(ms1.Mallocs-ms0.Mallocs)-generated), "count")
	p.add("wire.bytes_per_req", per(reqBytes), "B")
	return per(stage[0] + stage[1] + stage[2] + stage[3])
}

// durations returns the sorted durations of the spans named name.
func durations(recs []*recorder, name spanName) []int64 {
	var d []int64
	for _, r := range recs {
		for _, s := range r.spans {
			if s.name == name {
				d = append(d, s.end-s.start)
			}
		}
	}
	slices.Sort(d)
	return d
}

// coreDetail runs the steady mix on one core.Queue with nWorkers
// goroutines, every call timed and Config.Metrics on, then one
// fill-drain round.
func (p *probes) coreDetail() error {
	sz := p.c.sz
	cfg := core.DefaultConfig()
	cfg.Metrics = core.NewMetrics()
	q := core.New[struct{}](cfg)
	m := newMixInstance(q, nil, p.c.seed, -3, sz.live, sz.ladderWarm, spCoreInsert, spCoreExtract)
	var ms0, ms1 runtime.MemStats
	s0 := q.Snapshot()
	runtime.ReadMemStats(&ms0)
	r := m.round(sz.ladderOps, true)
	runtime.ReadMemStats(&ms1)
	s1 := q.Snapshot()

	recs := m.recorders()
	ins, ext := durations(recs, spCoreInsert), durations(recs, spCoreExtract)
	var inCalls, stalled int64
	for _, d := range [][]int64{ins, ext} {
		for _, x := range d {
			inCalls += x
			if x > stallNs {
				stalled += x
			}
		}
	}
	for _, q := range []struct {
		s string
		v float64
	}{{"p50", 0.50}, {"p99", 0.99}, {"p999", 0.999}} {
		p.add("core.insert_ns_"+q.s, percentile(ins, q.v), "ns")
		p.add("core.extract_ns_"+q.s, percentile(ext, q.v), "ns")
	}
	p.add("core.stall_share_pct", 100*float64(stalled)/float64(max(inCalls, 1)), "%")

	kop := float64(r.ops) / 1000
	pct := func(part, whole uint64) float64 { return 100 * float64(part) / float64(max(whole, 1)) }
	p.add("core.trylock_fail_per_kop", float64(s1.TryLockFail-s0.TryLockFail)/kop, "1/kop")
	p.add("core.insert_retries_per_kop", float64(s1.InsertRetries-s0.InsertRetries)/kop, "1/kop")
	p.add("core.insert_forced_pct", pct(s1.InsertForced-s0.InsertForced, s1.InsertsTotal()-s0.InsertsTotal()), "%")
	p.add("core.pool_hit_pct", pct(s1.ExtractPoolHit-s0.ExtractPoolHit, s1.ExtractsTotal()-s0.ExtractsTotal()), "%")
	p.add("core.pool_refills_per_kop", float64(s1.PoolRefills-s0.PoolRefills)/kop, "1/kop")
	p.add("core.swapdown_moves_per_kop", float64(s1.SwapDownMoves-s0.SwapDownMoves)/kop, "1/kop")
	p.add("core.hazard_scans_per_kop", float64(s1.HazardScans-s0.HazardScans)/kop, "1/kop")
	p.add("core.node_cache_hit_pct", pct(s1.NodeCacheHit-s0.NodeCacheHit, s1.NodeCacheHit-s0.NodeCacheHit+s1.NodeCacheMiss-s0.NodeCacheMiss), "%")
	p.add("core.leaf_level", float64(s1.LeafLevel), "levels")
	p.add("core.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(r.ops), "count")
	p.add("core.gc_cycles_per_mop", float64(ms1.NumGC-ms0.NumGC)/float64(r.ops)*1e6, "1/Mop")

	attempted, failed, err := m.finish()
	q.Close()
	if err := p.settle(attempted, failed, err, "core probe"); err != nil {
		return err
	}

	fd := &fillDrain{}
	fd.ws, fd.crew = newMixWorkers(p.c.seed, -3)
	fr := fd.round(2*sz.fillKeys, false)
	p.add("core.fill_ns_per_op", float64(fr.fillWall.Nanoseconds())/float64(sz.fillKeys), "ns")
	p.add("core.drain_ns_per_op", float64((fr.wall-fr.fillWall).Nanoseconds())/float64(sz.fillKeys), "ns")
	attempted, failed, err = fd.finish()
	return p.settle(attempted, failed, err, "fill-drain probe")
}

// shardedDetail runs the steady mix on the sharded queue with nWorkers
// goroutines and reads the front-end's own counters.
func (p *probes) shardedDetail() error {
	sz := p.c.sz
	q := sharded.New[struct{}](zmsqdQueue())
	m := newMixInstance(q, nil, p.c.seed, -3, sz.live, sz.ladderWarm, spShardedInsert, spShardedExtract)
	s0 := q.Snapshot()
	r := m.round(sz.ladderOps, false)
	s1 := q.Snapshot()
	kop := float64(r.ops) / 1000
	p.add("sharded.full_sweeps_per_kop", float64(s1.FullSweeps-s0.FullSweeps)/kop, "1/kop")
	p.add("sharded.steals_per_kop", float64(s1.Steals-s0.Steals)/kop, "1/kop")
	mean := float64(s1.Merged.Len) / float64(s1.Shards)
	p.add("sharded.imbalance_max_over_mean", float64(s1.ShardLenMax)/max(mean, 1), "ratio")
	p.add("sharded.active_shards", float64(s1.ActiveShards), "count")
	attempted, failed, err := m.finish()
	q.Close()
	return p.settle(attempted, failed, err, "sharded probe")
}

// walProbe runs a short traced lib-durable instance and reads the log's
// counters over its timed round, then the final recovery.
func (p *probes) walProbe() error {
	c := *p.c
	c.sz.durWarm = c.sz.ladderWarm
	in, err := newDurable(&c, -3)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	d := in.(*durable)
	w0 := d.walStats()
	d.round(c.sz.ladderOps, true)
	w1 := d.walStats()
	syncs := durations(d.recorders(), spShardedSync)
	ops := float64(max(w1.Ops-w0.Ops, 1))
	p.add("wal.sync_call_us_p50", percentile(syncs, 0.50)/1e3, "us")
	p.add("wal.sync_call_us_p99", percentile(syncs, 0.99)/1e3, "us")
	p.add("wal.ops_per_fsync", ops/float64(max(w1.Syncs-w0.Syncs, 1)), "count")
	p.add("wal.bytes_per_op", float64(w1.AppendedBytes-w0.AppendedBytes)/ops, "B")
	p.add("wal.snapshots", float64(w1.Snapshots-w0.Snapshots), "count")
	p.add("wal.snapshot_bytes_per_op", float64(w1.SnapshotBytesWritten-w0.SnapshotBytesWritten)/ops, "B")
	attempted, failed, err := d.finish()
	p.add("wal.recover_ms", float64(d.recoverTime.Microseconds())/1e3, "ms")
	p.add("wal.recover_keys_per_s", float64(d.recovered)/max(d.recoverTime.Seconds(), 1e-9), "1/s")
	return p.settle(attempted, failed, err, "wal probe")
}

// serverProbe puts one connection on a served queue: the pipe rung
// (window 16), request-reply round trips (window 1), and an open loop at
// 10 000 requests/s timed from each request's scheduled arrival.
func (p *probes) serverProbe() error {
	sz := p.c.sz
	s, err := startService(p.c.seed, -3, 1)
	if err != nil {
		return fmt.Errorf("server probe: %w", err)
	}
	if err := s.fill(p.c.seed, -3, sz.live); err != nil {
		s.stop()
		return fmt.Errorf("server probe: %w", err)
	}
	s.round(sz.ladderWarm/4, false)
	r := s.round(sz.ladderOps/2, false)
	pipeNs := float64(r.wall.Nanoseconds()) / float64(r.ops)
	st := s.srv.StatsSnapshot()

	w := &s.ws[0]
	rtt := make([]int64, 0, sz.probeRTT)
	for range sz.probeRTT {
		t0 := now()
		resp, err := w.c.Do(w.next(0))
		rtt = append(rtt, now()-t0)
		w.check(0, resp, err)
	}
	slices.Sort(rtt)
	open, late := w.openLoop(sz.probeOpen, 100*time.Microsecond)

	p.add("server.pipe_ns_per_op", pipeNs, "ns")
	p.add("server.self_ns_per_op", pipeNs-p.codecNs-p.shardedNs, "ns")
	p.add("server.rtt_w1_us_p50", percentile(rtt, 0.50)/1e3, "us")
	p.add("server.rtt_w1_us_p99", percentile(rtt, 0.99)/1e3, "us")
	p.add("server.coalesce_batch_mean", st.BatchMean, "count")
	p.add("server.overload_pct", 100*float64(st.Overloads)/float64(max(st.Ops+st.Overloads, 1)), "%")
	p.add("server.proto_errors", float64(st.ProtoErrors), "count")
	p.add("server.open10k_us_p50", percentile(open, 0.50)/1e3, "us")
	p.add("server.open10k_us_p99", percentile(open, 0.99)/1e3, "us")
	p.add("server.gen_late_us_p50", percentile(late, 0.50)/1e3, "us")
	attempted, failed, err := s.finish()
	return p.settle(attempted, failed, err, "server probe")
}

// openLoop sends n requests on a fixed schedule, one every interval,
// whether or not earlier ones have been answered. It returns each
// request's latency from its scheduled arrival and how late the generator
// sent it, both sorted. On this box time.Sleep overshoots by about a
// millisecond, ten intervals: the lateness says how much of the latency
// is the generator's.
func (w *svcWorker) openLoop(n int, interval time.Duration) (latency, lateness []int64) {
	type sent struct {
		p     *wire.Pending
		due   int64
		key   uint64
		isIns bool
	}
	// Sized to the number of sends so the generator never blocks on the
	// receiver.
	ch := make(chan sent, n)
	latency = make([]int64, 0, n)
	lateness = make([]int64, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range ch {
			resp, err := s.p.Wait()
			latency = append(latency, now()-s.due)
			w.keys[0], w.isIns[0] = s.key, s.isIns
			w.check(0, resp, err)
		}
	}()
	start := now()
	for i := 0; i < n; i++ {
		due := start + int64(i)*int64(interval)
		if wait := due - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		req := w.next(1)
		lateness = append(lateness, now()-due)
		p, err := w.c.Start(req)
		if err == nil {
			err = w.c.Flush()
		}
		if err != nil {
			w.failed++
			continue
		}
		ch <- sent{p, due, w.keys[1], w.isIns[1]}
	}
	close(ch)
	<-done
	slices.Sort(latency)
	slices.Sort(lateness)
	return latency, lateness
}
