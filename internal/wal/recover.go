package wal

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// State is the durable queue state recovered from a durability
// directory: the element multiset that was durably in the queue at the
// moment of the last crash or shutdown, plus enough bookkeeping for the
// recovery harness to explain what the log contained.
type State struct {
	// Keys is the live multiset, fully expanded (a key durably inserted
	// twice and never extracted appears twice) and sorted ascending for
	// determinism.
	Keys []uint64

	// Vals holds each instance's recovered payload bytes, aligned with
	// Keys; a nil entry is a payload-less instance (logged key-only, so
	// recovery restores a zero value). Instances of the same key appear
	// in insertion order. Vals is nil when no live instance carries a
	// payload — the key-only fast path. Entries do not alias
	// the on-disk files; decode them with the queue's Codec.
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
	st.SnapshotLSN = ch.lsn
	st.SnapshotKeys = ch.ms.instances()
	st.Deltas = ch.deltas
	st.deltaSeq = ch.nextSeq

	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	st.WALBytes = int64(len(b))

	lastLSN, records, torn, err := replay(b, ch.lsn, ch.ms.apply)
	if err != nil {
		return nil, err
	}
	st.Records = records
	if torn >= 0 {
		st.TornOffset = torn
		st.TornBytes = int64(len(b)) - torn
	}

	next := lastLSN
	if ch.lsn > next {
		next = ch.lsn
	}
	st.NextLSN = next + 1

	// Sort (key, state) pairs rather than bare keys: expanding them then
	// needs no second map lookup per key.
	type liveKey struct {
		k  uint64
		ks *keyState
	}
	distinct := make([]liveKey, 0, len(ch.ms))
	var n uint64
	for k, ks := range ch.ms {
		distinct = append(distinct, liveKey{k, ks})
		// n <= maxLive before the add and a count is below 2^63, so the
		// sum cannot wrap before the check catches it.
		if n += uint64(ks.count); n > maxLive {
			return nil, fmt.Errorf("%w: recovered state claims more than %d live instances", ErrCorrupt, uint64(maxLive))
		}
	}
	slices.SortFunc(distinct, func(a, b liveKey) int { return cmp.Compare(a.k, b.k) })
	st.Keys = make([]uint64, 0, n)
	for _, d := range distinct {
		k, ks := d.k, d.ks
		for i := int64(0); i < ks.count; i++ {
			st.Keys = append(st.Keys, k)
			var v []byte
			if ks.vals != nil {
				v = ks.vals[i]
			}
			if v != nil && st.Vals == nil {
				// The first live payload: every instance before it is
				// payload-less. A key-only directory never gets here.
				st.Vals = make([][]byte, len(st.Keys)-1, n)
			}
			if st.Vals != nil {
				st.Vals = append(st.Vals, v)
			}
		}
	}
	return st, nil
}

// maxLive is the most live instances a recovered State can hold: Keys
// takes 8 bytes per instance, and the Go runtime allocates at most 2^48
// bytes in one object on 64-bit platforms (int bounds it first on 32-bit
// ones). A chain that claims more — a v1 base's per-key counts are not
// bounded by its size — is corrupt.
const maxLive = min(1<<45, math.MaxInt/8)
