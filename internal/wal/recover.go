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
	// payload — the key-only fast path. Entries may alias the file images
	// Recover read: decode them with the queue's Codec, which copies what
	// it keeps.
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

	ch, err := loadChain(dir)
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
// Vals and SnapshotKeys.
func foldState(st *State, runs []*run) error {
	fs, err := sizeFold(runs)
	if err != nil {
		return err
	}
	st.SnapshotKeys = int(fs.chainLive)
	st.Keys = make([]uint64, 0, fs.live)
	if fs.valued {
		st.Vals = make([][]byte, 0, fs.live)
	}
	var key uint64
	return fold(runs, func(k uint64, _, _ int64) error {
		key = k
		return nil
	}, func(v []byte, n int64) {
		for ; n > 0; n-- {
			st.Keys = append(st.Keys, key)
			if fs.valued {
				st.Vals = append(st.Vals, v)
			}
		}
	})
}

// maxLive is the most live instances a recovered State can hold: Keys
// takes 8 bytes per instance, and the Go runtime allocates at most 2^48
// bytes in one object on 64-bit platforms (int bounds it first on 32-bit
// ones). A chain that claims more — a v1 base's per-key counts are not
// bounded by its size — is corrupt.
const maxLive = min(1<<45, math.MaxInt/8)
