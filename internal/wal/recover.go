package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// State is the durable queue state recovered from a durability
// directory: the element multiset that was durably in the queue at the
// moment of the last crash or shutdown, plus enough bookkeeping for the
// recovery harness to explain what the log contained.
type State struct {
	// Keys is the live multiset, fully expanded (a key durably inserted
	// twice and never extracted appears twice), in ascending order.
	Keys []uint64

	// Vals holds each instance's recovered payload bytes, aligned with
	// Keys; a nil entry is a payload-less instance (logged key-only, so
	// recovery restores a zero value). Instances of the same key appear
	// in insertion order. Vals is nil when no live instance carries a
	// payload — the key-only fast path. The entries share 64 KiB arena
	// chunks: decode them with the queue's Codec, which copies what it
	// keeps.
	Vals [][]byte

	// NextLSN is the LSN the reopened log will assign next.
	NextLSN uint64

	// SnapshotLSN is the watermark of the snapshot chain that seeded the
	// replay (0 if none existed); SnapshotKeys is how many live
	// instances it contributed before the tail replay. Deltas is how
	// many incremental delta files the chain contained.
	SnapshotLSN  uint64
	SnapshotKeys int
	Deltas       int

	// Records is the number of intact log records replayed.
	Records uint64

	// TornOffset is the byte offset where a torn tail begins, or -1 if
	// the log ends cleanly; TornBytes is how many trailing bytes the
	// tear discards. Torn bytes were never covered by a completed fsync,
	// so nothing in them was ever acknowledged.
	TornOffset, TornBytes int64

	// WALBytes is the size of the log file as found on disk.
	WALBytes int64

	// deltaSeq is where the chain's delta file numbering left off: the
	// sequence number Open's log gives its next delta.
	deltaSeq int
}

// Live returns the number of live elements.
func (s *State) Live() int { return len(s.Keys) }

// Recover reads the durability directory and rebuilds the durable
// element multiset: snapshot chain first (base plus deltas, if any
// completed), then every intact log record above the chain watermark.
// It is read-only — it never truncates or repairs anything — so it can
// be called repeatedly or on a copy of the directory; Open is Recover
// plus the repairs an appending log needs. A
// missing or empty directory recovers to an empty state. Both record
// formats replay transparently: a v1 key-only log recovers exactly as it
// always did (Vals stays nil), and v2 records restore each instance's
// payload bytes.
//
// Torn tails (the normal crash signature) are reported, not failed:
// everything before the tear replays, the tear itself is discarded.
// CRC-valid corruption (ErrCorrupt) fails hard.
func Recover(dir string) (*State, error) {
	st := &State{TornOffset: -1}

	ch, err := loadChain(dir, nil)
	defer ch.close()
	if err != nil {
		return nil, err
	}
	st.SnapshotLSN, st.Deltas, st.deltaSeq = ch.lsn, ch.deltas, ch.nextSeq

	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	st.WALBytes = int64(len(b))

	ev, lastLSN, records, torn, err := scanLog(b, ch.lsn, nil)
	if err != nil {
		return nil, err
	}
	st.Records = records
	if torn >= 0 {
		st.TornOffset, st.TornBytes = torn, int64(len(b))-torn
	}
	st.NextLSN = max(lastLSN, ch.lsn) + 1

	ev, _ = sortEvents(ev, nil)
	if err := foldState(st, append(ch.runs, &run{name: walName, img: b, ev: ev})); err != nil {
		return nil, err
	}
	return st, nil
}

// foldState folds runs, the chain and then the log tail, into st's Keys,
// Vals and SnapshotKeys in one pass, and starts again with a run loaded
// whole when one is found out of key order. A v1 base's CRC is checked
// first: its counts are the one input whose size its bytes do not bound,
// and the fold expands them as it reads them. Keys starts at the runs'
// key counts, which bound the distinct survivors and are bounded by the
// bytes that hold them; only keys with several instances grow it. Vals is
// made at the first surviving payload, nil-filled before it, and the
// payloads are copied into shared chunks of arenaChunk bytes.
func foldState(st *State, runs []*run) error {
	for _, r := range runs {
		if c := r.src; c != nil && c.magic == snapMagic {
			if err := r.rewind(); err != nil {
				return err
			}
			if err := c.skim(r.name); err != nil {
				return err
			}
		}
	}
	for {
		keys := 0
		for _, r := range runs {
			if r.src != nil {
				keys += int(r.src.n)
			} else {
				keys += len(r.ev)
			}
		}
		st.Keys, st.Vals, st.SnapshotKeys = make([]uint64, 0, keys), nil, 0
		var arena []byte
		var key uint64
		err := fold(runs, func(k uint64, live, chainLive int64) error {
			// len(Keys) <= maxLive, and live is at most a base's count plus
			// what deltas and a log image add, so the sum cannot wrap.
			if int64(len(st.Keys))+live > maxLive {
				return errTooLive
			}
			key, st.SnapshotKeys = k, st.SnapshotKeys+int(chainLive)
			return nil
		}, func(v []byte, n int64) {
			if v != nil {
				if st.Vals == nil {
					st.Vals = make([][]byte, len(st.Keys), cap(st.Keys))
				}
				// A fresh chunk also keeps an empty payload non-nil.
				if arena == nil || len(v) > cap(arena)-len(arena) {
					arena = make([]byte, 0, max(arenaChunk, len(v)))
				}
				arena = append(arena, v...)
				v = arena[len(arena)-len(v) : len(arena) : len(arena)]
			}
			for ; n > 0; n-- {
				st.Keys = append(st.Keys, key)
				if st.Vals != nil {
					st.Vals = append(st.Vals, v)
				}
			}
		})
		if !errors.Is(err, errUnsorted) {
			return err
		}
		if err := loadUnsorted(runs); err != nil {
			return err
		}
	}
}

// arenaChunk is the size of the chunks recovered payloads are copied
// into; a larger payload takes a chunk of its own.
const arenaChunk = 64 << 10

// errTooLive is a fold claiming more than maxLive live instances.
var errTooLive = fmt.Errorf("%w: fold claims more than %d live instances", ErrCorrupt, uint64(maxLive))

// maxLive is the most live instances a recovered State can hold: Keys
// takes 8 bytes per instance, and the Go runtime allocates at most 2^48
// bytes in one object on 64-bit platforms (int bounds it first on 32-bit
// ones). A chain that claims more — a v1 base's per-key counts are not
// bounded by its size — is corrupt.
const maxLive = min(1<<45, math.MaxInt/8)
