package harness

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sharded"
	"repro/internal/wal"
)

// This file is the crash-recovery harness: it runs a durable workload
// with an acknowledgment protocol (insert/extract a chunk, Sync, treat
// the chunk as acked only if Sync returned nil), injects a crash at a
// chosen point in the WAL machinery, materializes the crash by
// truncating the log to the frozen cut, recovers a fresh queue from the
// surviving bytes, and verifies conservation: every acked operation
// must be reflected in the recovered state, and every unacked operation
// may have happened or not — but nothing else is allowed. The bounds
// are checked per key by contract.VerifyRecovery.
//
// Keys are unique per run (worker<<32|seq), so the per-key bounds are
// sharp: an acked insert whose key is missing is a lost element, an
// extracted-and-acked key that reappears is a resurrection, and a key
// never inserted is an invention. The same protocol runs against the
// single queue and the sharded front-end (which shares one log across
// shards, so the ack protocol is identical).

// CrashKind selects where the simulated crash is injected.
type CrashKind int

const (
	// CrashMidAppend freezes the cut inside a record being framed: the
	// recovered log ends in a torn tail starting at that record.
	CrashMidAppend CrashKind = iota
	// CrashMidFsync freezes the cut inside the group being fsynced; the
	// syncing caller gets ErrCrashed instead of an ack.
	CrashMidFsync
	// CrashMidSnapshot crashes during an online snapshot write: the temp
	// snapshot is abandoned and the log's unsynced tail is cut.
	CrashMidSnapshot
	// CrashTornTail runs the workload to quota, appends a tail of
	// unsynced inserts, and force-crashes at a seeded random cut.
	CrashTornTail
)

// Kinds lists every crash kind, for sweep drivers.
func Kinds() []CrashKind {
	return []CrashKind{CrashMidAppend, CrashMidFsync, CrashMidSnapshot, CrashTornTail}
}

// String names the crash kind for reports and spec files.
func (k CrashKind) String() string {
	switch k {
	case CrashMidAppend:
		return "mid-append"
	case CrashMidFsync:
		return "mid-fsync"
	case CrashMidSnapshot:
		return "mid-snapshot"
	case CrashTornTail:
		return "torn-tail"
	}
	return fmt.Sprintf("CrashKind(%d)", int(k))
}

// RecoveryPlan configures one crash-recovery scenario.
type RecoveryPlan struct {
	// Seed drives the fault schedule, the crash-cut randomization and the
	// queue's internal RNGs.
	Seed uint64
	// Kind is the crash point under test.
	Kind CrashKind
	// Shards > 1 runs the scenario against the sharded front-end (shared
	// log); 0 or 1 against a single queue.
	Shards int
	// Producers and Consumers set the worker counts.
	Producers, Consumers int
	// ChunkSize is the number of operations between acknowledgment syncs.
	ChunkSize int
	// ValueBytes > 0 makes every insert carry a deterministic key-derived
	// payload of this many bytes (logged through wal.BytesCodec, record
	// format v2), and recovery additionally asserts byte-exact value
	// fidelity: each recovered instance's payload must equal its key's
	// generator output. 0 keeps the key-only v1 protocol.
	ValueBytes int
	// MaxChunks caps chunks per worker: the fault kinds loop until the
	// crash fires (erroring at the cap); CrashTornTail runs exactly this
	// many chunks and then tears the tail.
	MaxChunks int
	// Dir is the durability directory (required; the caller owns cleanup).
	Dir string
	// Queue is the queue configuration; Seed/Faults/WAL/Durability are
	// overwritten by the plan.
	Queue core.Config
	// Faults configures the non-WAL fault points firing during the
	// workload (the WAL point for Kind is armed automatically).
	Faults fault.Plan
}

func (p RecoveryPlan) withDefaults() RecoveryPlan {
	if p.Producers <= 0 {
		p.Producers = 3
	}
	if p.Consumers <= 0 {
		p.Consumers = 2
	}
	if p.ChunkSize <= 0 {
		p.ChunkSize = 48
	}
	if p.MaxChunks <= 0 {
		if p.Kind == CrashTornTail {
			p.MaxChunks = 6
		} else {
			p.MaxChunks = 400
		}
	}
	return p
}

// walOptions arms the crash point for the plan's kind and picks the
// group-commit cadence: fast for the fault kinds (the crash races real
// sync traffic), slow for the torn tail (so the final tail is unsynced).
func (p RecoveryPlan) walOptions(inj *fault.Injector) wal.Options {
	opts := wal.Options{
		Dir:         p.Dir,
		GroupCommit: wal.DefaultGroupCommit,
		Seed:        p.Seed,
		Faults:      inj,
	}
	if p.Kind == CrashTornTail {
		opts.GroupCommit = 50 * wal.DefaultGroupCommit
	}
	if p.Kind == CrashMidSnapshot {
		opts.SnapshotBytes = 4 << 10
	}
	return opts
}

func (p RecoveryPlan) faultPlan() fault.Plan {
	fp := p.Faults
	switch p.Kind {
	case CrashMidAppend:
		fp.WALAppendPct = 1
	case CrashMidFsync:
		fp.WALFsyncPct = 20
	case CrashMidSnapshot:
		fp.WALSnapshotPct = 100
	}
	return fp
}

// RecoveryResult summarizes a crash-recovery scenario.
type RecoveryResult struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Seed uint64 `json:"seed"`
	// ValueBytes is the per-insert payload size (0 = key-only v1 records).
	ValueBytes int `json:"value_bytes"`
	// Inserted and Extracted count physical operations performed
	// pre-crash (acked or not).
	Inserted  int `json:"inserted"`
	Extracted int `json:"extracted"`
	// Stats is the log's activity at the crash moment; Ops/Syncs is the
	// group-commit amortization factor.
	Stats wal.Stats `json:"wal_stats"`
	// Crash reports the frozen cut and what it destroyed.
	Crash wal.CrashInfo `json:"crash"`
	// State summarizes what recovery read back from the directory.
	Recovered   int    `json:"recovered"`
	TornBytes   int64  `json:"torn_bytes"`
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// Report is the conservation verdict.
	Report contract.RecoveryReport `json:"report"`
}

// target is the queue surface the chaos and recovery harnesses need; both
// core.Queue[[]byte] and sharded.Queue[[]byte] satisfy it. The element
// type is []byte even for key-only plans (nil values, no codec, v1
// records on disk) so one workload covers both protocols.
type target interface {
	Insert(key uint64, val []byte)
	TryExtractMax() (key uint64, val []byte, ok bool)
	Drain() []core.Element[[]byte]
	Len() int
	CheckInvariants() error
	Close()
	WALStats() (wal.Stats, bool)
	CloseWAL() error
}

// openTarget opens the queue a plan describes — the sharded front-end for
// shards > 1, a single queue otherwise — and returns it with the name
// reports give it.
func openTarget(shards int, cfg core.Config, opts core.Options[[]byte]) (target, *wal.State, string, error) {
	if shards > 1 {
		name := fmt.Sprintf("sharded(%d)", shards)
		q, st, err := sharded.Open(sharded.Config{Shards: shards, Queue: cfg}, opts)
		if err != nil {
			return nil, nil, name, err
		}
		return q, st, name, nil
	}
	q, st, err := core.Open(cfg, opts)
	if err != nil {
		return nil, nil, VariantName(cfg), err
	}
	return q, st, VariantName(cfg), nil
}

// RecoveryValueFor is the deterministic key→payload generator valued
// recovery plans insert with: n bytes mixed from the key alone, so the
// verifier can re-derive any instance's expected payload without a
// ledger of the actual bytes.
func RecoveryValueFor(key uint64, n int) []byte {
	b := make([]byte, n)
	x := key ^ 0x6a09e667f3bcc908
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

// tally is one worker's ledger of operations by acknowledgment status.
type tally struct {
	ackedIns, unackedIns, ackedExt, unackedExt map[uint64]int
}

func newTally() *tally {
	return &tally{
		ackedIns:   map[uint64]int{},
		unackedIns: map[uint64]int{},
		ackedExt:   map[uint64]int{},
		unackedExt: map[uint64]int{},
	}
}

func settle(pending []uint64, acked, unacked map[uint64]int, ok bool) {
	m := unacked
	if ok {
		m = acked
	}
	for _, k := range pending {
		m[k]++
	}
}

// RunRecovery runs one crash-recovery scenario end to end: durable
// workload, crash, recovery, conservation verification, and a drain
// check that the rebuilt queue's content matches the recovered state.
func RunRecovery(plan RecoveryPlan) (RecoveryResult, error) {
	plan = plan.withDefaults()
	res := RecoveryResult{Kind: plan.Kind.String(), Seed: plan.Seed, ValueBytes: plan.ValueBytes}
	if plan.Dir == "" {
		return res, errors.New("recovery: RecoveryPlan.Dir is required")
	}

	inj := fault.New(plan.Seed, plan.faultPlan())
	log, err := wal.Open(plan.walOptions(inj))
	if err != nil {
		return res, err
	}

	cfg := plan.Queue
	cfg.Seed = plan.Seed
	cfg.Faults = inj
	cfg.Durability = nil
	cfg.WAL = log // external policy: the harness keeps the handle for crash control
	// valueFor is nil for key-only plans; valued plans log through
	// BytesCodec and every insert carries valueFor(key).
	var valueFor func(key uint64) []byte
	var codec wal.Codec[[]byte]
	if plan.ValueBytes > 0 {
		n := plan.ValueBytes
		valueFor = func(key uint64) []byte { return RecoveryValueFor(key, n) }
		codec = wal.BytesCodec{}
	}
	opts := core.Options[[]byte]{Codec: codec}
	q, _, name, err := openTarget(plan.Shards, cfg, opts)
	res.Name = name
	if err != nil {
		_ = log.Close()
		return res, err
	}
	defer q.Close()

	crashed := func() bool {
		select {
		case <-log.Crashed():
			return true
		default:
			return false
		}
	}

	// Workers: producers insert unique keys in chunks and ack each chunk
	// with a Sync; consumers do the same with extracted keys. A chunk
	// whose Sync did not return nil stays unacked — the crash may or may
	// not have persisted any part of it.
	tallies := make([]*tally, plan.Producers+plan.Consumers)
	var wg sync.WaitGroup
	for p := 0; p < plan.Producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			t := newTally()
			tallies[id] = t
			seq := uint64(0)
			pending := make([]uint64, 0, plan.ChunkSize)
			for chunk := 0; chunk < plan.MaxChunks && !crashed(); chunk++ {
				pending = pending[:0]
				for i := 0; i < plan.ChunkSize; i++ {
					seq++
					key := uint64(id+1)<<32 | seq
					pending = append(pending, key)
					var val []byte
					if valueFor != nil {
						val = valueFor(key)
					}
					q.Insert(key, val)
				}
				err := log.Sync()
				settle(pending, t.ackedIns, t.unackedIns, err == nil)
				if err != nil {
					return
				}
			}
		}(p)
	}
	for c := 0; c < plan.Consumers; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			t := newTally()
			tallies[id] = t
			pending := make([]uint64, 0, plan.ChunkSize)
			for chunk := 0; chunk < plan.MaxChunks && !crashed(); chunk++ {
				pending = pending[:0]
				misses := 0
				// Consumers take smaller chunks than producers so the queue
				// keeps net-growing and extraction never starves the run.
				for len(pending) < plan.ChunkSize/2 && misses < 64 && !crashed() {
					k, _, ok := q.TryExtractMax()
					if !ok {
						misses++
						runtime.Gosched()
						continue
					}
					pending = append(pending, k)
				}
				if len(pending) == 0 {
					continue
				}
				err := log.Sync()
				settle(pending, t.ackedExt, t.unackedExt, err == nil)
				if err != nil {
					return
				}
			}
		}(plan.Producers + c)
	}
	wg.Wait()

	main := newTally()
	if plan.Kind == CrashTornTail && !crashed() {
		// The torn-tail scenario: a burst of inserts that no Sync ever
		// covered, then a crash at a seeded cut somewhere in that tail —
		// usually splitting a record.
		for i := 0; i < 2*plan.ChunkSize; i++ {
			key := uint64(len(tallies)+1)<<32 | uint64(i+1)
			main.unackedIns[key]++
			var val []byte
			if valueFor != nil {
				val = valueFor(key)
			}
			q.Insert(key, val)
		}
		log.ForceCrash()
	}
	if !crashed() {
		log.SimulateCrash()
		return res, fmt.Errorf("recovery(%s/%s): crash point never fired within %d chunks/worker",
			res.Name, res.Kind, plan.MaxChunks)
	}

	res.Stats = log.Stats()
	info, err := log.SimulateCrash()
	res.Crash = info
	if err != nil {
		return res, err
	}

	// Build the conservation spec from the merged worker ledgers.
	spec := contract.RecoverySpec{
		AckedInserts:    map[uint64]int{},
		AckedExtracts:   map[uint64]int{},
		UnackedInserts:  map[uint64]int{},
		UnackedExtracts: map[uint64]int{},
	}
	for _, t := range append(tallies, main) {
		if t == nil {
			continue
		}
		for k, n := range t.ackedIns {
			spec.AckedInserts[k] += n
			res.Inserted += n
		}
		for k, n := range t.unackedIns {
			spec.UnackedInserts[k] += n
			res.Inserted += n
		}
		for k, n := range t.ackedExt {
			spec.AckedExtracts[k] += n
			res.Extracted += n
		}
		for k, n := range t.unackedExt {
			spec.UnackedExtracts[k] += n
			res.Extracted += n
		}
	}

	// Recover from the crashed directory and verify conservation.
	rcfg := plan.Queue
	rcfg.Seed = plan.Seed + 1
	rcfg.Faults = nil
	rcfg.WAL = nil
	rcfg.Durability = &core.DurabilityConfig{
		WAL: true, Dir: plan.Dir, GroupCommit: wal.DefaultGroupCommit,
	}
	rq, st, _, err := openTarget(plan.Shards, rcfg, opts)
	if err != nil {
		return res, fmt.Errorf("recovery(%s/%s): %w", res.Name, res.Kind, err)
	}
	res.Recovered = st.Live()
	res.TornBytes = st.TornBytes
	res.SnapshotLSN = st.SnapshotLSN

	spec.ValueFor = valueFor
	rep, verr := contract.VerifyRecovery(spec, st.Keys, st.Vals)
	res.Report = rep
	if verr != nil {
		return res, fmt.Errorf("recovery(%s/%s): %w", res.Name, res.Kind, verr)
	}

	// The rebuilt queue must be structurally sound and hold exactly the
	// recovered multiset.
	if err := rq.CheckInvariants(); err != nil {
		return res, fmt.Errorf("recovery(%s/%s): rebuilt queue: %w", res.Name, res.Kind, err)
	}
	drained := map[uint64]int{}
	for _, e := range rq.Drain() {
		drained[e.Key]++
		// The rebuilt queue must hold the decoded payloads too, not just
		// the recovered state slice the verifier saw.
		if valueFor != nil {
			if want := valueFor(e.Key); !bytes.Equal(e.Val, want) {
				return res, fmt.Errorf("recovery(%s/%s): rebuilt queue holds payload %q for key %d, want byte-exact %q",
					res.Name, res.Kind, e.Val, e.Key, want)
			}
		}
	}
	want := map[uint64]int{}
	for _, k := range st.Keys {
		want[k]++
	}
	if len(drained) != len(want) {
		return res, fmt.Errorf("recovery(%s/%s): rebuilt queue drained %d distinct keys, recovered state had %d",
			res.Name, res.Kind, len(drained), len(want))
	}
	for k, n := range want {
		if drained[k] != n {
			return res, fmt.Errorf("recovery(%s/%s): key %d drained %d times, recovered state had %d",
				res.Name, res.Kind, k, drained[k], n)
		}
	}
	if err := rq.CloseWAL(); err != nil {
		return res, fmt.Errorf("recovery(%s/%s): closing recovered WAL: %w", res.Name, res.Kind, err)
	}
	return res, nil
}
