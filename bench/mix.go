package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/pq"
	"repro/internal/quality"
	"repro/internal/sharded"
	"repro/internal/xrand"
)

// queue is the single-operation surface the in-process workloads, the
// ladder rungs and the checker's test fakes share. core.Queue[struct{}]
// and sharded.Queue[struct{}] satisfy it as they are.
type queue interface {
	Insert(key uint64, val struct{})
	TryExtractMax() (uint64, struct{}, bool)
}

// heapQueue adapts the strict global-lock heap, the ladder's reference
// rung.
type heapQueue struct{ h *pq.GlobalHeap }

func (q heapQueue) Insert(key uint64, _ struct{}) { q.h.Insert(key) }
func (q heapQueue) TryExtractMax() (uint64, struct{}, bool) {
	k, ok := q.h.ExtractMax()
	return k, struct{}{}, ok
}

// zmsqdShards and the default core config are what cmd/zmsqd runs with
// when given no flags.
const zmsqdShards = 4

func zmsqdQueue() sharded.Config {
	return sharded.Config{Shards: zmsqdShards, Queue: core.DefaultConfig()}
}

func newSteadyQueue() *sharded.Queue[struct{}] { return sharded.New[struct{}](zmsqdQueue()) }

// mixWorker is one goroutine's input stream, ledger and recorder. Padded
// so neighbouring workers do not share a cache line.
type mixWorker struct {
	worker
	_ [64]byte
}

func newMixWorkers(seed uint64, instance int) ([]mixWorker, crew) {
	ws := make([]mixWorker, nWorkers)
	c := make(crew, len(ws))
	for i := range ws {
		ws[i].rng.Seed(workerSeed(seed, instance, i))
		c[i] = &ws[i].worker
	}
	return ws, c
}

// insert performs n inserts of fresh keys.
func (w *mixWorker) insert(q queue, n int, name spanName) {
	w.rec.open(spWorker)
	for i := 0; i < n; i++ {
		k, _ := key48(w.rng.Uint64())
		if w.rec.sampled() {
			t0 := now()
			q.Insert(k, struct{}{})
			w.rec.done(name, t0)
		} else {
			q.Insert(k, struct{}{})
		}
		w.led.in.add(k)
	}
	w.rec.close()
}

// extract performs n extractions. The caller guarantees the queue holds
// at least n elements per concurrent extractor's claim, so a reported
// empty is a failure.
func (w *mixWorker) extract(q queue, n int, name spanName) {
	w.rec.open(spWorker)
	for i := 0; i < n; i++ {
		var (
			k  uint64
			ok bool
		)
		if w.rec.sampled() {
			t0 := now()
			k, _, ok = q.TryExtractMax()
			w.rec.done(name, t0)
		} else {
			k, _, ok = q.TryExtractMax()
		}
		if !ok {
			w.failed++
			continue
		}
		w.led.out.add(k)
	}
	w.rec.close()
}

// mix performs n operations, each an insert of a fresh key or an
// extraction by the flip of a fair coin.
func (w *mixWorker) mix(q queue, n int, ins, ext spanName) {
	w.rec.open(spWorker)
	for i := 0; i < n; i++ {
		k, isInsert := key48(w.rng.Uint64())
		timed := w.rec.sampled()
		var t0 int64
		if timed {
			t0 = now()
		}
		if isInsert {
			q.Insert(k, struct{}{})
			if timed {
				w.rec.done(ins, t0)
			}
			w.led.in.add(k)
			continue
		}
		k, _, ok := q.TryExtractMax()
		if timed {
			w.rec.done(ext, t0)
		}
		if !ok {
			w.failed++
			continue
		}
		w.led.out.add(k)
	}
	w.rec.close()
}

// settle drains q through its own extraction path and checks
// conservation over the workers' ledgers. It returns how many operations
// the workers attempted and how many of those failed.
func settle(q queue, c crew) (attempted, failed int64, err error) {
	in, out, attempted, failed := c.totals()
	// Bounded so that a queue that duplicates without end still terminates.
	for range in.n + 1 {
		k, _, ok := q.TryExtractMax()
		if !ok {
			break
		}
		out.add(k)
	}
	return attempted, failed, conserved(in, out)
}

// instance is one set-up of a workload: a system under test brought to
// its stationary regime, on which fixed-size rounds are timed.
type instance interface {
	// round runs ops operations and returns its measurements; traced
	// rounds keep a span per call.
	round(ops int64, trace bool) roundStat
	// finish tears the instance down, checks its outputs and returns how
	// many operations it attempted since set-up began and how many failed.
	finish() (attempted, failed int64, err error)
	// recorders exposes the workers' spans of the last round (crew has it).
	recorders() []*recorder
}

// mixInstance runs the 50/50 mix on anything that satisfies queue.
type mixInstance struct {
	crew
	q        queue
	ws       []mixWorker
	ins, ext spanName
	closeQ   func()
}

// newMixInstance prefills q to live elements with all workers, then runs
// warm untimed operations of the mix.
func newMixInstance(q queue, closeQ func(), seed uint64, inst int, live int, warm int64, ins, ext spanName) *mixInstance {
	m := &mixInstance{q: q, ins: ins, ext: ext, closeQ: closeQ}
	m.ws, m.crew = newMixWorkers(seed, inst)
	m.reset(false, int64(live))
	runWorkers(len(m.ws), int64(live), func(id, n int) { m.ws[id].insert(q, n, ins) })
	if warm > 0 {
		m.round(warm, false)
	}
	return m
}

func (m *mixInstance) reset(trace bool, ops int64) {
	for i := range m.ws {
		m.ws[i].rec.reset(trace, sampleEvery, int(ops), int(ops/chunk)+1)
	}
}

func (m *mixInstance) round(ops int64, trace bool) roundStat {
	m.reset(trace, ops)
	wall, cpu := runWorkers(len(m.ws), ops, func(id, n int) { m.ws[id].mix(m.q, n, m.ins, m.ext) })
	return m.stat(ops, wall, cpu)
}

func (m *mixInstance) finish() (int64, int64, error) {
	attempted, failed, err := settle(m.q, m.crew)
	if m.closeQ != nil {
		m.closeQ()
	}
	return attempted, failed, err
}

// newSteady is lib-steady's set-up: zmsqd's default sharded queue,
// prefilled and warmed past the transient of the 50/50 mix.
func newSteady(c *runConfig, inst int) (instance, error) {
	q := newSteadyQueue()
	return newMixInstance(q, q.Close, c.seed, inst, c.sz.live, c.sz.steadyWarm, spShardedInsert, spShardedExtract), nil
}

// fillDrain is lib-fill-drain: every round builds a fresh single ZMSQ,
// fills it with all workers, then drains it to empty with all workers.
type fillDrain struct {
	crew
	ws                []mixWorker
	attempted, failed int64
	err               error
}

func newFillDrain(c *runConfig, inst int) (instance, error) {
	f := &fillDrain{}
	f.ws, f.crew = newMixWorkers(c.seed, inst)
	for range c.sz.fillWarmRounds {
		f.round(2*c.sz.fillKeys, false)
	}
	return f, f.err
}

func (f *fillDrain) round(ops int64, trace bool) roundStat {
	keys := ops / 2
	for i := range f.ws {
		f.ws[i].rec.reset(trace, sampleEvery, int(ops), int(ops/chunk)+2)
		f.ws[i].led, f.ws[i].failed = ledger{}, 0
	}
	// The previous round's queue is garbage by now; collecting it here
	// keeps its cost, and the heap it would still occupy, out of this
	// round's numbers.
	runtime.GC()
	q := repro.New[struct{}](repro.DefaultConfig())
	fillWall, fillCPU := runWorkers(len(f.ws), keys, func(id, n int) { f.ws[id].insert(q, n, spCoreInsert) })
	drainWall, drainCPU := runWorkers(len(f.ws), keys, func(id, n int) { f.ws[id].extract(q, n, spCoreExtract) })
	// Exactly keys extractions succeeded if nothing was lost; anything
	// settle still finds in the queue was duplicated.
	attempted, failed, err := settle(q, f.crew)
	q.Close()
	f.attempted += attempted
	f.failed += failed
	if err != nil && f.err == nil {
		f.err = fmt.Errorf("fill-drain round: %w", err)
	}
	r := f.stat(ops, fillWall+drainWall, fillCPU+drainCPU)
	r.fillWall = fillWall
	return r
}

func (f *fillDrain) finish() (int64, int64, error) { return f.attempted, f.failed, f.err }

// ranker measures rank error: it mirrors the queue's contents in an
// order-statistic treap and records, for each extracted key, how many
// larger keys were present.
type ranker struct {
	t         *quality.Treap
	ranks     []int64
	recording bool
	misses    int64
}

func newRanker(seed uint64, capacity int) *ranker {
	return &ranker{t: quality.NewTreap(seed), ranks: make([]int64, 0, capacity)}
}

func (r *ranker) inserted(k uint64) { r.t.Insert(k) }

func (r *ranker) extracted(k uint64) {
	rank, ok := r.t.RankFromTop(k)
	if !ok {
		r.misses++
		return
	}
	r.t.Delete(k)
	if r.recording {
		r.ranks = append(r.ranks, int64(rank))
	}
}

// rankResult is a rank-error distribution in ranks from the top (0 = the
// true maximum was returned).
type rankResult struct {
	mean, p99 float64
	n         int
	misses    int64
}

func (r *ranker) result() rankResult {
	res := rankResult{n: len(r.ranks), misses: r.misses}
	if len(r.ranks) == 0 {
		return res
	}
	var sum int64
	for _, x := range r.ranks {
		sum += x
	}
	sorted := slices.Clone(r.ranks)
	slices.Sort(sorted)
	res.mean = float64(sum) / float64(len(sorted))
	res.p99 = percentile(sorted, 0.99)
	return res
}

// mixRank is the steady mix on one goroutine with every extraction
// ranked: prefill, an unrecorded warm-up, then ops recorded operations.
func mixRank(q queue, seed uint64, live, warm, ops int) rankResult {
	r := newRanker(seed, ops)
	rng := xrand.New(workerSeed(seed, -1, 0))
	for range live {
		k, _ := key48(rng.Uint64())
		q.Insert(k, struct{}{})
		r.inserted(k)
	}
	for i := range warm + ops {
		r.recording = i >= warm
		k, isInsert := key48(rng.Uint64())
		if isInsert {
			q.Insert(k, struct{}{})
			r.inserted(k)
		} else if k, _, ok := q.TryExtractMax(); ok {
			r.extracted(k)
		} else {
			r.misses++
		}
	}
	return r.result()
}

// fillDrainRank fills a fresh single ZMSQ with keys on one goroutine and
// ranks every extraction of the drain.
func fillDrainRank(seed uint64, keys int) rankResult {
	q := repro.New[struct{}](repro.DefaultConfig())
	defer q.Close()
	r := newRanker(seed, keys)
	rng := xrand.New(workerSeed(seed, -1, 0))
	for range keys {
		k, _ := key48(rng.Uint64())
		q.Insert(k, struct{}{})
		r.inserted(k)
	}
	r.recording = true
	for range keys {
		if k, _, ok := q.TryExtractMax(); ok {
			r.extracted(k)
		} else {
			r.misses++
		}
	}
	return r.result()
}

// timeMix is one ladder rung: the steady stream on one goroutine against
// q, returning wall nanoseconds per operation over the measured part.
func timeMix(q queue, seed uint64, live int, warm, ops int64) (nsPerOp float64, failed int64, err error) {
	w := &mixWorker{}
	w.rng.Seed(workerSeed(seed, -2, 0))
	w.rec.reset(false, 1<<30, 0, 0)
	w.insert(q, live, spCoreInsert)
	w.mix(q, int(warm), spCoreInsert, spCoreExtract)
	t0 := time.Now()
	w.mix(q, int(ops), spCoreInsert, spCoreExtract)
	d := time.Since(t0)
	_, failed, err = settle(q, crew{&w.worker})
	return float64(d.Nanoseconds()) / float64(ops), failed, err
}
