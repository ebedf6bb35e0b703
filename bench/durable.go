package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/sharded"
	"repro/internal/wal"
	"repro/internal/xrand"
)

const (
	batchLen = 64 // keys per InsertBatch / ExtractBatch
	valueLen = 64 // bytes per value
	// snapshotBytes is each shard log's snapshot threshold. At zmsqd's
	// default of 8 MiB the four logs, which fill at one rate, all snapshot
	// once per ~750 Ki elements: a round then holds either no snapshot or
	// four (5.5 against 3.9 us of CPU per element), and the median over
	// rounds reports where in that cycle the run happened to stop. At 1 MiB
	// every round holds ~20 delta snapshots and two rebases, so rounds are
	// alike and the snapshot path is still most of what wal does beside
	// appending.
	snapshotBytes = 1 << 20
)

// fsType names the filesystem holding dir, from /proc/mounts.
func fsType(dir string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

func durableConfig(dir string) sharded.Config {
	cfg := zmsqdQueue()
	cfg.Queue.Durability = &core.DurabilityConfig{
		WAL: true, Dir: dir, GroupCommit: wal.DefaultGroupCommit, SnapshotBytes: snapshotBytes,
	}
	return cfg
}

// durWorker is one goroutine of lib-durable. It works in groups of
// ackEvery batches — alternately a valued InsertBatch and an ExtractBatch
// — and ends each group with SyncWAL, so every element it counts has been
// acknowledged as durable.
type durWorker struct {
	worker
	turn int
	keys []uint64 // one group's insert batches, generated before the clock starts
	vals [][]byte
	dst  []core.Element[[]byte] // one group's extractions, checked after it stops
	_    [64]byte
}

// ackEvery is how many batches one SyncWAL acknowledges. Where the log
// falls back to the checkout's disk (see chooseWALBase) one fsync per batch is
// half the measured path and the workload measures the device; at one per
// four the wal layer's own work is most of it on either filesystem.
const (
	ackEvery = 4
	groupLen = ackEvery * batchLen
)

// checkValue reports whether an extracted or recovered payload is the one
// the benchmark generated for key.
func checkValue(key uint64, val []byte) bool {
	return bytes.Equal(val, loadgen.ValueFor(key, valueLen))
}

// groups performs elements/groupLen groups. With onlyInsert every batch
// is an insert (the prefill). A group's latency is from its first call to
// its acknowledgement.
func (w *durWorker) groups(q *sharded.Queue[[]byte], elements int, onlyInsert bool) {
	for g := 0; g < elements/groupLen; g++ {
		inserts := 0
		for b := 0; b < ackEvery; b++ {
			if onlyInsert || (w.turn+b)&1 == 0 {
				inserts++
			}
		}
		for i := 0; i < inserts*batchLen; i++ {
			w.keys[i], _ = key48(w.rng.Uint64())
			w.vals[i] = loadgen.ValueFor(w.keys[i], valueLen)
		}
		w.dst = w.dst[:0]
		next := 0
		t0 := now()
		w.rec.open(spGroup)
		for b := 0; b < ackEvery; b++ {
			tb := now()
			if onlyInsert || w.turn&1 == 0 {
				q.InsertBatch(w.keys[next:next+batchLen], w.vals[next:next+batchLen])
				next += batchLen
				w.rec.mark(spShardedInsertBatch, tb, now())
			} else {
				w.dst = q.ExtractBatch(w.dst, batchLen)
				w.rec.mark(spShardedExtractBatch, tb, now())
			}
			w.turn++
		}
		ts := now()
		err := q.SyncWAL()
		t1 := now()
		w.rec.mark(spShardedSync, ts, t1)
		w.rec.close()
		w.rec.lat = append(w.rec.lat, t1-t0)
		if err != nil {
			// Nothing in this group was acknowledged.
			w.failed += groupLen
			continue
		}
		for _, k := range w.keys[:next] {
			w.led.in.add(k)
		}
		// The live set is hundreds of batches deep: a short batch means
		// an extraction reported empty while elements remained.
		w.failed += int64((ackEvery-inserts)*batchLen - len(w.dst))
		for _, e := range w.dst {
			if !checkValue(e.Key, e.Val) {
				w.failed++
			}
			w.led.out.add(e.Key)
		}
	}
}

// durable is lib-durable's instance: a durable sharded queue of []byte
// values logging to a fresh directory (see chooseWALBase).
type durable struct {
	crew
	dir string
	q   *sharded.Queue[[]byte]
	ws  []durWorker

	recoverTime time.Duration // the final recover-and-verify
	recovered   int
}

func newDurable(c *runConfig, inst int) (instance, error) {
	dir, err := walDir(c.walBase, "wal-")
	if err != nil {
		return nil, err
	}
	q, err := sharded.NewDurableCodec[[]byte](durableConfig(dir), wal.BytesCodec{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &durable{dir: dir, q: q, ws: make([]durWorker, nWorkers)}
	for i := range d.ws {
		w := &d.ws[i]
		w.rng.Seed(workerSeed(c.seed, inst, i))
		w.keys = make([]uint64, groupLen)
		w.vals = make([][]byte, groupLen)
		w.dst = make([]core.Element[[]byte], 0, groupLen)
		d.crew = append(d.crew, &w.worker)
	}
	d.reset(false, int64(c.sz.live))
	runWorkers(len(d.ws), int64(c.sz.live), func(id, n int) { d.ws[id].groups(d.q, n, true) })
	// A restart is part of getting a durable queue ready: log enough for
	// recovery to have snapshots and a tail to replay, close, and carry
	// on with what recovery rebuilds. The rest of the warm-up runs on the
	// reopened log, whose snapshot cycle starts over with it.
	d.round(c.sz.durWarm/4, false)
	if err := d.reopen(); err != nil {
		d.cleanup()
		return nil, err
	}
	d.round(c.sz.durWarm, false)
	return d, nil
}

func (d *durable) reset(trace bool, elements int64) {
	n := int(elements / groupLen)
	for i := range d.ws {
		d.ws[i].rec.reset(trace, 1, (ackEvery+1)*n, n)
	}
}

// closeLog syncs and closes the log without draining the queue.
func (d *durable) closeLog() error {
	err := d.q.SyncWAL()
	err = errors.Join(err, d.q.CloseWAL())
	d.q.Close()
	return err
}

// reopen closes the log and replaces the queue with the one recovery
// rebuilds, returning what recovery read.
func (d *durable) reopen() error {
	if err := d.closeLog(); err != nil {
		return fmt.Errorf("close log: %w", err)
	}
	q, _, err := sharded.RecoverCodec[[]byte](durableConfig(d.dir), wal.BytesCodec{})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	d.q = q
	return nil
}

func (d *durable) round(elements int64, trace bool) roundStat {
	d.reset(trace, elements)
	wall, cpu := runWorkers(len(d.ws), elements, func(id, n int) { d.ws[id].groups(d.q, n, false) })
	return d.stat(elements, wall, cpu)
}

func (d *durable) walStats() wal.Stats {
	st, _ := d.q.WALStats()
	return st
}

func (d *durable) cleanup() {
	d.q.CloseWAL()
	d.q.Close()
	os.RemoveAll(d.dir)
}

// finish closes the log without draining, recovers the directory and
// checks that what every worker was acknowledged is exactly what comes
// back, values included.
func (d *durable) finish() (attempted, failed int64, err error) {
	defer d.cleanup()
	in, out, attempted, failed := d.totals()
	if err := d.closeLog(); err != nil {
		return attempted, failed, fmt.Errorf("close log: %w", err)
	}
	t0 := time.Now()
	q, st, err := sharded.RecoverCodec[[]byte](durableConfig(d.dir), wal.BytesCodec{})
	d.recoverTime = time.Since(t0)
	if err != nil {
		return attempted, failed, fmt.Errorf("recover: %w", err)
	}
	d.q, d.recovered = q, st.Live()
	if st.Live() > 0 && st.Vals == nil {
		return attempted, failed + int64(st.Live()), errors.New("recovery returned keys without values")
	}
	for i, k := range st.Keys {
		if !checkValue(k, st.Vals[i]) {
			failed++
		}
		out.add(k)
	}
	if q.Len() != st.Live() {
		return attempted, failed, fmt.Errorf("recovered queue holds %d elements, log replay found %d", q.Len(), st.Live())
	}
	return attempted, failed, conserved(in, out)
}

// chooseWALBase picks the directory durable instances create their logs
// under. A device must not be in lib-durable's measured path: with the log
// on this VM's disk, ten runs of the unchanged tree spread lat_p99_us by
// 25 % and ops_per_s by 12 %, on a tmpfs by 3 % and 5 %. So /dev/shm is
// used when a directory can be made (and removed) there, and the
// benchmark's own out/ otherwise. The environment line names the choice.
func chooseWALBase(outDir string) string {
	if dir, err := os.MkdirTemp("/dev/shm", "zmsq-bench-"); err == nil {
		os.Remove(dir)
		return "/dev/shm"
	}
	return outDir
}

// walDir creates a fresh log directory under base.
func walDir(base, prefix string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "zmsq-bench-"+prefix)
}

// batchRank is lib-durable's rank-error pass: alternating batches of 64
// on one goroutine against the same sharded queue without a log, which
// orders elements exactly as the durable one does (logging happens beside
// the queue's decisions, not in them).
func batchRank(seed uint64, live, warm, ops int) rankResult {
	q := sharded.New[[]byte](zmsqdQueue())
	defer q.Close()
	r := newRanker(seed, ops/2)
	rng := xrand.New(workerSeed(seed, -1, 0))
	keys := make([]uint64, batchLen)
	dst := make([]core.Element[[]byte], 0, batchLen)
	insert := func() {
		for i := range keys {
			keys[i], _ = key48(rng.Uint64())
		}
		q.InsertBatch(keys, nil)
		for _, k := range keys {
			r.inserted(k)
		}
	}
	for range live / batchLen {
		insert()
	}
	for b := range (warm + ops) / batchLen {
		r.recording = b*batchLen >= warm
		if b&1 == 0 {
			insert()
			continue
		}
		dst = q.ExtractBatch(dst[:0], batchLen)
		r.misses += int64(batchLen - len(dst))
		for _, e := range dst {
			r.extracted(e.Key)
		}
	}
	return r.result()
}
