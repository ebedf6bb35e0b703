package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// chunk is how many operations a worker claims from a round's shared
// budget at a time. A round ends when the budget is spent, not when every
// worker has done an equal share, so one descheduled worker delays the
// round by at most one chunk.
const chunk = 1024

// sizes fixes every count a workload uses. Round sizes and warm-ups are
// constants of a scale, never functions of -seconds: -seconds only decides
// how many rounds run.
type sizes struct {
	instances int // fresh set-ups per run; setup_s is their median

	live int // resident elements (steady, durable, service per tenant)

	steadyWarm, steadyRound int64 // operations
	fillKeys                int64 // keys per fill-drain round
	fillWarmRounds          int
	durWarm, durRound       int64 // elements (64 per batch)
	svcWarm, svcRound       int64 // requests

	qualityWarm, qualityOps int // single-goroutine rank-error pass

	ladderWarm, ladderOps int64 // per-layer probes
	probeRTT              int   // window-1 round trips
	probeOpen             int   // open-loop requests at 10 000/s
}

var scales = map[string]sizes{
	"full": {
		instances: 3, live: 1 << 16,
		steadyWarm: 2 << 20, steadyRound: 512 << 10,
		fillKeys: 256 << 10, fillWarmRounds: 2,
		durWarm: 512 << 10, durRound: 512 << 10,
		svcWarm: 512 << 10, svcRound: 256 << 10,
		qualityWarm: 256 << 10, qualityOps: 1 << 20,
		ladderWarm: 256 << 10, ladderOps: 512 << 10,
		probeRTT: 20000, probeOpen: 10000,
	},
	"smoke": {
		instances: 1, live: 1 << 11,
		steadyWarm: 16 << 10, steadyRound: 16 << 10,
		fillKeys: 8 << 10, fillWarmRounds: 1,
		durWarm: 8 << 10, durRound: 8 << 10,
		svcWarm: 4 << 10, svcRound: 4 << 10,
		qualityWarm: 4 << 10, qualityOps: 16 << 10,
		ladderWarm: 4 << 10, ladderOps: 8 << 10,
		probeRTT: 200, probeOpen: 200,
	},
}

// epoch anchors span timestamps; now is nanoseconds since it, monotonic.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runWorkers spends a budget of ops across the given number of goroutines
// in chunks, calling body(worker, n) for each claimed chunk, and returns
// the wall and CPU time from releasing the workers to the last one
// finishing.
func runWorkers(workers int, ops int64, body func(id, n int)) (wall, cpu time.Duration) {
	var budget atomic.Int64
	budget.Store(ops)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				left := budget.Add(-chunk)
				if left <= -chunk {
					return
				}
				body(id, int(min(chunk, left+chunk)))
			}
		}()
	}
	c0, t0 := cpuTime(), time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0), cpuTime() - c0
}

// hostSpeed times a fixed register-only loop (no memory traffic, no calls)
// on one goroutine and then on every worker at once, and returns millions of
// iterations per second per goroutine for each. The program under test does
// not run meanwhile, so the two numbers say what the host gave the guest at
// that moment: both low means a neighbour on the physical core, only the
// second low means the guest's own vCPUs are sharing one. Called right
// after an instance's last round, when every CPU is already awake.
func hostSpeed() (alone, together float64) {
	const iters = 20 << 20
	spin := func() float64 {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for range iters {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := time.Since(t0).Seconds()
		if x == 0 { // never: keeps the loop's result live
			return 0
		}
		return iters / 1e6 / d
	}
	rates := make([]float64, nWorkers)
	var wg sync.WaitGroup
	for i := range rates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rates[i] = spin()
		}()
	}
	wg.Wait()
	return spin(), median(rates)
}

// workerSeed derives worker id's input stream for one instance of a
// workload from the run's -seed.
func workerSeed(seed uint64, instance, id int) uint64 {
	return xrand.Mix64(seed ^ uint64(instance+1)<<40 ^ uint64(id+1)*0x9e3779b97f4a7c15)
}

// key48 draws a uniform 48-bit key and an independent coin from one
// 64-bit draw. 2^48 keys against at most 2^24 draws per run makes keys
// effectively unique, which the conservation check relies on for its xor.
func key48(r uint64) (key uint64, insert bool) { return r >> 16, r&1 == 0 }

// roundStat is one timed round.
type roundStat struct {
	ops       int64
	wall, cpu time.Duration
	p50, p99  float64 // ns, over this round's latency samples
	samples   int
	// fillWall is the insert phase's share of wall on fill-drain rounds.
	fillWall time.Duration
}

func (r roundStat) opsPerSec() float64 { return float64(r.ops) / r.wall.Seconds() }

// cpuPerOp is the round's process CPU time per operation, in microseconds.
func (r roundStat) cpuPerOp() float64 { return float64(r.cpu.Nanoseconds()) / 1e3 / float64(r.ops) }

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))])
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// tally is an order-independent fingerprint of a key multiset.
type tally struct{ n, sum, xor uint64 }

func (t *tally) add(k uint64) { t.n++; t.sum += k; t.xor ^= k }

func (t *tally) merge(o tally) { t.n += o.n; t.sum += o.sum; t.xor ^= o.xor }

// ledger is what one worker put into the system under test and what it
// got back. Conservation holds when, summed over workers and whatever the
// final drain (or recovery) returns, in equals out.
type ledger struct{ in, out tally }

// conserved compares everything inserted with everything extracted,
// drained or recovered. A lost element shows as a count deficit, a
// duplicated one as a surplus, a corrupted key in sum and xor.
func conserved(in, out tally) error {
	if in == out {
		return nil
	}
	switch {
	case out.n < in.n:
		return fmt.Errorf("lost %d of %d elements (sum %#x vs %#x, xor %#x vs %#x)", in.n-out.n, in.n, in.sum, out.sum, in.xor, out.xor)
	case out.n > in.n:
		return fmt.Errorf("%d elements came out of %d put in: duplicated (sum %#x vs %#x, xor %#x vs %#x)", out.n, in.n, in.sum, out.sum, in.xor, out.xor)
	}
	return fmt.Errorf("%d elements in and out but keys differ (sum %#x vs %#x, xor %#x vs %#x)", in.n, in.sum, out.sum, in.xor, out.xor)
}

// worker is what the goroutines of every workload have in common: an
// input stream, a recorder, a ledger and a count of failed operations.
type worker struct {
	rng    xrand.Rand
	rec    recorder
	led    ledger
	failed int64
}

// crew is an instance's workers, seen through what they have in common.
type crew []*worker

// recorders exposes the workers' samples and spans of the last round.
func (c crew) recorders() []*recorder {
	recs := make([]*recorder, len(c))
	for i, w := range c {
		recs[i] = &w.rec
	}
	return recs
}

// totals sums the workers' ledgers and failures; attempted is every
// operation that went in, came out or failed.
func (c crew) totals() (in, out tally, attempted, failed int64) {
	for _, w := range c {
		in.merge(w.led.in)
		out.merge(w.led.out)
		failed += w.failed
	}
	return in, out, int64(in.n+out.n) + failed, failed
}

// stat is the round the workers have just finished.
func (c crew) stat(ops int64, wall, cpu time.Duration) roundStat {
	lat := latencies(c.recorders())
	return roundStat{ops: ops, wall: wall, cpu: cpu, p50: percentile(lat, 0.50), p99: percentile(lat, 0.99), samples: len(lat)}
}

// nWorkers is the goroutine (or connection) count of every multi-worker
// loop: one per CPU the process may use, and no more. Fixed at start-up
// because the rank-error passes lower GOMAXPROCS while they run.
var nWorkers = runtime.GOMAXPROCS(0)
