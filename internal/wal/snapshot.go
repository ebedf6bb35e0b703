package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fault"
)

// Online snapshots compact the log without quiescing the queue. A naive
// snapshot would freeze the queue and dump its contents; instead the
// snapshot is computed from the log itself: the durable prefix
// [0, durableOff] is a stable byte range (fsynced, append-only, never
// rewritten), and because inserts are logged before they become visible
// and extracts after removal, replaying that prefix yields the exact
// durable state at the watermark LSN — while concurrent inserts and
// extracts keep appending past the watermark untouched.
//
// Snapshots form an incremental CHAIN: an optional base file (queue.snap,
// the full multiset at some watermark) followed by numbered delta files
// (queue.snap.dNNNNNN), each encoding only the net per-key effect of the
// log window between two watermarks — the keys/values that changed since
// the previous durable watermark. Writing a delta costs O(window), not
// O(live state), which is the whole point: a small burst of operations
// against a large queue no longer rewrites every live element. Every
// RebaseEvery deltas the chain is folded into a fresh base and the delta
// files deleted, bounding recovery cost and directory clutter.
//
// Each chain element is written to a temp file, fsynced, and renamed into
// place; only then is the covered log prefix trimmed. Recovery skips log
// records at or below the chain watermark, so a crash anywhere in the
// sequence (temp abandoned, delta renamed but log untrimmed, base renamed
// but stale deltas undeleted) recovers to the same state: stale deltas
// are recognized by their watermark being at or below the chain's and
// skipped.
//
// Replay attributes each key-only extract record to the OLDEST live
// instance of its key (FIFO). With that fixed convention, the survivors
// of any replay are always the newest instances, so applying a delta —
// drop the window's extract count oldest-first across the prior state
// and then the window's own inserts, append what remains — reproduces
// exactly the state a full replay of the underlying records would build,
// and deltas compose across the chain.

// Snapshot-chain file magics. The base comes in two formats — v1
// (key-only, the original format, still written whenever no live
// instance carries a payload so key-only directories stay bit-compatible)
// and v2 (per-instance payload bytes). Deltas have their own magic.
const (
	snapMagic   uint64 = 0x31504e5351534d5a // "ZMSQSNP1" key-only base
	snapMagicV2 uint64 = 0x32504e5351534d5a // "ZMSQSNP2" valued base
	deltaMagic  uint64 = 0x44504e5351534d5a // "ZMSQSNPD" incremental delta
)

// snapHeader is magic(8) + watermark lsn(8) + distinct-key count(8).
const snapHeader = 24

// noPayload is the vlen sentinel marking a payload-less instance in base
// v2 and delta files (distinct from 0, a present-but-empty payload).
const noPayload = ^uint32(0)

// keyState is one key's live instances. vals stays nil while no instance
// carries a payload — the key-only fast path — and otherwise holds
// exactly count entries in insertion (FIFO) order, nil entries being
// payload-less instances.
type keyState struct {
	count int64
	vals  [][]byte
}

// dropOldest removes the n oldest instances. The caller bounds n by
// count.
func (st *keyState) dropOldest(n int64) {
	st.count -= n
	if st.vals != nil {
		st.vals = st.vals[n:]
	}
}

// multiset is the durable live-element state built by snapshot-chain
// loading and log replay: per key, an instance count plus per-instance
// payloads once any instance has one. Values stored in a multiset never
// alias transient decode buffers.
type multiset map[uint64]*keyState

// insert adds one instance of k. val nil means a payload-less (key-only)
// instance; non-nil (possibly empty) is a payload.
func (ms multiset) insert(k uint64, val []byte) {
	st := ms[k]
	if st == nil {
		st = &keyState{}
		ms[k] = st
	}
	if val != nil && st.vals == nil {
		// First payload for this key: backfill earlier instances as
		// payload-less.
		st.vals = make([][]byte, st.count, st.count+1)
	}
	st.count++
	if st.vals != nil {
		st.vals = append(st.vals, val)
	}
}

// extract removes the oldest instance of k, reporting false if none is
// live (an extract without a durable insert — corruption).
func (ms multiset) extract(k uint64) bool {
	st := ms[k]
	if st == nil || st.count == 0 {
		return false
	}
	st.dropOldest(1)
	if st.count == 0 {
		delete(ms, k)
	}
	return true
}

// instances is the total live-instance count.
func (ms multiset) instances() int {
	n := 0
	for _, st := range ms {
		n += int(st.count)
	}
	return n
}

// hasVals reports whether any live instance carries a payload — the
// base-format selector.
func (ms multiset) hasVals() bool {
	for _, st := range ms {
		if st.vals != nil {
			return true
		}
	}
	return false
}

// windowKey is one key's net effect over a log window, for encoding an
// incremental delta: how many extracts the window logged (each consumes
// the oldest live instance, wherever it lives) and the window's own
// inserts in order (nil entry = payload-less instance).
type windowKey struct {
	drops int64
	adds  [][]byte
}

// window maps keys touched by a log window to their net effect. Unlike a
// multiset, its values may alias the decoded log image — a window only
// lives long enough to be encoded into a delta.
type window map[uint64]*windowKey

// cloneVal copies v out of decoder scratch; the result is non-nil even
// for empty input (non-nil means "has a payload").
func cloneVal(v []byte) []byte {
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// replayMultiset applies the records of a log image to ms, skipping
// records at or below sinceLSN (already covered by the snapshot chain).
// It returns the last LSN applied or skipped, the number of records
// walked, and the offset of a torn tail (-1 if the image ends cleanly).
// A key extracted with no live instance means an extract record without
// a matching insert — impossible under the append-before-insert /
// append-after-extract ordering, so it is corruption. Payloads are
// copied out of the image.
func replayMultiset(ms multiset, b []byte, sinceLSN uint64) (lastLSN, records uint64, tornOff int64, err error) {
	d := NewDecoder(b)
	tornOff = -1
	for {
		rec, err := d.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return lastLSN, records, tornOff, nil
			}
			if errors.Is(err, ErrTornTail) {
				return lastLSN, records, d.Offset(), nil
			}
			return lastLSN, records, tornOff, err
		}
		records++
		lastLSN = rec.LSN
		if rec.LSN <= sinceLSN {
			continue
		}
		switch rec.Kind {
		case recInsert, recInsertBatch:
			for _, k := range rec.Keys {
				ms.insert(k, nil)
			}
		case recInsertV, recInsertBatchV:
			for i, k := range rec.Keys {
				ms.insert(k, cloneVal(rec.Vals[i]))
			}
		case recExtract, recExtractBatch:
			for _, k := range rec.Keys {
				if !ms.extract(k) {
					return lastLSN, records, tornOff, fmt.Errorf("%w: extract of key %d at LSN %d without a durable insert", ErrCorrupt, k, rec.LSN)
				}
			}
		}
	}
}

// replayWindow accumulates the records of a log image above sinceLSN
// into w, for delta encoding. Same return contract as replayMultiset.
// Window values alias b; the caller keeps b alive until the delta is
// encoded.
func replayWindow(w window, b []byte, sinceLSN uint64) (lastLSN, records uint64, tornOff int64, err error) {
	d := NewDecoder(b)
	tornOff = -1
	get := func(k uint64) *windowKey {
		wk := w[k]
		if wk == nil {
			wk = &windowKey{}
			w[k] = wk
		}
		return wk
	}
	for {
		rec, err := d.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return lastLSN, records, tornOff, nil
			}
			if errors.Is(err, ErrTornTail) {
				return lastLSN, records, d.Offset(), nil
			}
			return lastLSN, records, tornOff, err
		}
		records++
		lastLSN = rec.LSN
		if rec.LSN <= sinceLSN {
			continue
		}
		switch rec.Kind {
		case recInsert, recInsertBatch:
			for _, k := range rec.Keys {
				wk := get(k)
				wk.adds = append(wk.adds, nil)
			}
		case recInsertV, recInsertBatchV:
			for i, k := range rec.Keys {
				wk := get(k)
				wk.adds = append(wk.adds, rec.Vals[i])
			}
		case recExtract, recExtractBatch:
			for _, k := range rec.Keys {
				get(k).drops++
			}
		}
	}
}

// applyDelta applies one decoded window to ms: per key, the window's
// drops consume the oldest instances — first from the prior state, then
// from the window's own adds — and the surviving adds append. drops that
// exceed prior + window instances are corruption (an extract the chain
// never inserted).
func applyDelta(ms multiset, w window) error {
	for k, wk := range w {
		st := ms[k]
		var have int64
		if st != nil {
			have = st.count
		}
		pop := wk.drops
		if pop > have {
			pop = have
		}
		if pop > 0 {
			st.dropOldest(pop)
			if st.count == 0 {
				delete(ms, k)
			}
		}
		rem := wk.drops - pop
		if rem > int64(len(wk.adds)) {
			return fmt.Errorf("%w: delta drops %d instances of key %d, chain holds %d + window %d", ErrCorrupt, wk.drops, k, have, len(wk.adds))
		}
		for _, v := range wk.adds[rem:] {
			ms.insert(k, v)
		}
	}
	return nil
}

// encodeSnapshot serializes a key-only multiset in the v1 base format:
//
//	magic  uint64 LE
//	lsn    uint64 LE   watermark: records with LSN <= lsn are covered
//	n      uint64 LE   number of distinct keys
//	n × (key uint64 LE, count uint64 LE)
//	crc    uint32 LE   CRC-32C of everything after magic
func encodeSnapshot(lsn uint64, counts map[uint64]int64) []byte {
	b := make([]byte, 0, snapHeader+16*len(counts)+4)
	b = binary.LittleEndian.AppendUint64(b, snapMagic)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(counts)))
	for k, c := range counts {
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[8:], castagnoli))
}

// totalLen is the payload bytes vals hold. The two valued encoders size
// their buffers exactly with it: grown by append, a multi-megabyte image
// left two to three times its size in dead copies behind, and that garbage
// — not the queue — set the peak memory of a durable run.
func totalLen(vals [][]byte) (n int) {
	for _, v := range vals {
		n += len(v)
	}
	return n
}

// encodeBase serializes a full multiset as a base file, picking v1 when
// no instance carries a payload (bit-compatible with pre-codec
// snapshots) and v2 otherwise:
//
//	magic  uint64 LE   snapMagicV2
//	lsn    uint64 LE
//	n      uint64 LE   number of distinct keys
//	n × (key uint64 LE, count uint64 LE, count × payload)
//	crc    uint32 LE
//
// where payload = vlen uint32 LE + vlen bytes, vlen == noPayload marking
// a payload-less instance.
func encodeBase(lsn uint64, ms multiset) []byte {
	if !ms.hasVals() {
		counts := make(map[uint64]int64, len(ms))
		for k, st := range ms {
			counts[k] = st.count
		}
		return encodeSnapshot(lsn, counts)
	}
	size := snapHeader + 4
	for _, st := range ms {
		size += 16 + 4*int(st.count) + totalLen(st.vals)
	}
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint64(b, snapMagicV2)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ms)))
	for k, st := range ms {
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint64(b, uint64(st.count))
		for i := int64(0); i < st.count; i++ {
			var v []byte
			if st.vals != nil {
				v = st.vals[i]
			}
			if v == nil {
				b = binary.LittleEndian.AppendUint32(b, noPayload)
				continue
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
			b = append(b, v...)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[8:], castagnoli))
}

// encodeDelta serializes a window as a delta file:
//
//	magic   uint64 LE   deltaMagic
//	prev    uint64 LE   chain watermark this delta extends (0 = none)
//	lsn     uint64 LE   new chain watermark
//	n       uint64 LE   number of keys touched
//	n × (key uint64 LE, drops uint64 LE, adds uint32 LE, adds × payload)
//	crc     uint32 LE
func encodeDelta(prevLSN, lsn uint64, w window) []byte {
	size := 32 + 4
	for _, wk := range w {
		size += 20 + 4*len(wk.adds) + totalLen(wk.adds)
	}
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint64(b, deltaMagic)
	b = binary.LittleEndian.AppendUint64(b, prevLSN)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(w)))
	for k, wk := range w {
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint64(b, uint64(wk.drops))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(wk.adds)))
		for _, v := range wk.adds {
			if v == nil {
				b = binary.LittleEndian.AppendUint32(b, noPayload)
				continue
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
			b = append(b, v...)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[8:], castagnoli))
}

// readSnapFile reads and CRC-validates one chain file, returning its
// magic and body (everything between magic and CRC). A missing file is
// os.ErrNotExist; any malformed content is ErrCorrupt — chain files are
// only ever installed by an atomic rename after fsync, so unlike the log
// they have no torn-tail excuse.
func readSnapFile(path string) (magic uint64, body []byte, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil, err
		}
		return 0, nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	if len(b) < 12 {
		return 0, nil, fmt.Errorf("%w: snapshot file %s too short", ErrCorrupt, filepath.Base(path))
	}
	magic = binary.LittleEndian.Uint64(b)
	body = b[8 : len(b)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return 0, nil, fmt.Errorf("%w: snapshot file %s crc mismatch", ErrCorrupt, filepath.Base(path))
	}
	return magic, body, nil
}

// decodeBaseV1 parses a v1 (key-only) base body into a multiset.
func decodeBaseV1(body []byte) (lsn uint64, ms multiset, err error) {
	if len(body) < 16 {
		return 0, nil, fmt.Errorf("%w: snapshot header truncated", ErrCorrupt)
	}
	lsn = binary.LittleEndian.Uint64(body)
	n := binary.LittleEndian.Uint64(body[8:])
	if uint64(len(body)) != 16+16*n {
		return 0, nil, fmt.Errorf("%w: snapshot count %d disagrees with %d body bytes", ErrCorrupt, n, len(body))
	}
	ms = make(multiset, n)
	for i := uint64(0); i < n; i++ {
		k := binary.LittleEndian.Uint64(body[16+16*i:])
		c := int64(binary.LittleEndian.Uint64(body[24+16*i:]))
		if c <= 0 {
			return 0, nil, fmt.Errorf("%w: snapshot key %d has count %d", ErrCorrupt, k, c)
		}
		if _, dup := ms[k]; dup {
			return 0, nil, fmt.Errorf("%w: snapshot key %d duplicated", ErrCorrupt, k)
		}
		ms[k] = &keyState{count: c}
	}
	return lsn, ms, nil
}

// decodeBaseV2 parses a v2 (valued) base body into a multiset, copying
// payloads out of the file image.
func decodeBaseV2(body []byte) (lsn uint64, ms multiset, err error) {
	if len(body) < 16 {
		return 0, nil, fmt.Errorf("%w: snapshot header truncated", ErrCorrupt)
	}
	lsn = binary.LittleEndian.Uint64(body)
	n := binary.LittleEndian.Uint64(body[8:])
	if n > uint64(len(body))/20 {
		return 0, nil, fmt.Errorf("%w: snapshot count %d implausible for %d body bytes", ErrCorrupt, n, len(body))
	}
	ms = make(multiset, n)
	off := 16
	for i := uint64(0); i < n; i++ {
		if len(body)-off < 16 {
			return 0, nil, fmt.Errorf("%w: snapshot key %d overruns body", ErrCorrupt, i)
		}
		k := binary.LittleEndian.Uint64(body[off:])
		c := int64(binary.LittleEndian.Uint64(body[off+8:]))
		off += 16
		if c <= 0 || c > int64(len(body)) {
			return 0, nil, fmt.Errorf("%w: snapshot key %d has count %d", ErrCorrupt, k, c)
		}
		if _, dup := ms[k]; dup {
			return 0, nil, fmt.Errorf("%w: snapshot key %d duplicated", ErrCorrupt, k)
		}
		st := &keyState{count: c, vals: make([][]byte, 0, c)}
		for j := int64(0); j < c; j++ {
			if len(body)-off < 4 {
				return 0, nil, fmt.Errorf("%w: snapshot key %d payload %d overruns body", ErrCorrupt, k, j)
			}
			vlen := binary.LittleEndian.Uint32(body[off:])
			off += 4
			if vlen == noPayload {
				st.vals = append(st.vals, nil)
				continue
			}
			if int(vlen) > len(body)-off {
				return 0, nil, fmt.Errorf("%w: snapshot key %d payload %d overruns body", ErrCorrupt, k, j)
			}
			st.vals = append(st.vals, cloneVal(body[off:off+int(vlen)]))
			off += int(vlen)
		}
		ms[k] = st
	}
	if off != len(body) {
		return 0, nil, fmt.Errorf("%w: snapshot has %d trailing body bytes", ErrCorrupt, len(body)-off)
	}
	return lsn, ms, nil
}

// decodeDelta parses a delta body, copying payloads out of the file
// image.
func decodeDelta(body []byte) (prevLSN, lsn uint64, w window, err error) {
	if len(body) < 24 {
		return 0, 0, nil, fmt.Errorf("%w: delta header truncated", ErrCorrupt)
	}
	prevLSN = binary.LittleEndian.Uint64(body)
	lsn = binary.LittleEndian.Uint64(body[8:])
	n := binary.LittleEndian.Uint64(body[16:])
	if lsn <= prevLSN {
		return 0, 0, nil, fmt.Errorf("%w: delta watermark %d not above previous %d", ErrCorrupt, lsn, prevLSN)
	}
	if n > uint64(len(body))/20 {
		return 0, 0, nil, fmt.Errorf("%w: delta count %d implausible for %d body bytes", ErrCorrupt, n, len(body))
	}
	w = make(window, n)
	off := 24
	for i := uint64(0); i < n; i++ {
		if len(body)-off < 20 {
			return 0, 0, nil, fmt.Errorf("%w: delta key %d overruns body", ErrCorrupt, i)
		}
		k := binary.LittleEndian.Uint64(body[off:])
		drops := int64(binary.LittleEndian.Uint64(body[off+8:]))
		adds := binary.LittleEndian.Uint32(body[off+16:])
		off += 20
		if drops < 0 || uint64(adds) > uint64(len(body)) {
			return 0, 0, nil, fmt.Errorf("%w: delta key %d has drops %d adds %d", ErrCorrupt, k, drops, adds)
		}
		if _, dup := w[k]; dup {
			return 0, 0, nil, fmt.Errorf("%w: delta key %d duplicated", ErrCorrupt, k)
		}
		wk := &windowKey{drops: drops}
		if adds > 0 {
			wk.adds = make([][]byte, 0, adds)
		}
		for j := uint32(0); j < adds; j++ {
			if len(body)-off < 4 {
				return 0, 0, nil, fmt.Errorf("%w: delta key %d payload %d overruns body", ErrCorrupt, k, j)
			}
			vlen := binary.LittleEndian.Uint32(body[off:])
			off += 4
			if vlen == noPayload {
				wk.adds = append(wk.adds, nil)
				continue
			}
			if int(vlen) > len(body)-off {
				return 0, 0, nil, fmt.Errorf("%w: delta key %d payload %d overruns body", ErrCorrupt, k, j)
			}
			wk.adds = append(wk.adds, cloneVal(body[off:off+int(vlen)]))
			off += int(vlen)
		}
		w[k] = wk
	}
	if off != len(body) {
		return 0, 0, nil, fmt.Errorf("%w: delta has %d trailing body bytes", ErrCorrupt, len(body)-off)
	}
	return prevLSN, lsn, w, nil
}

// deltaName is the file name of delta sequence number seq.
func deltaName(seq int) string { return fmt.Sprintf("%s%06d", deltaPrefix, seq) }

// chain is a loaded snapshot chain: the multiset at watermark lsn,
// how many delta files contributed, and where the delta numbering left
// off.
type chain struct {
	lsn     uint64
	ms      multiset
	deltas  int
	nextSeq int
}

// loadChain reads and validates the whole snapshot chain of dir: the
// base (either format), then every delta in sequence order. Deltas whose
// watermark is at or below the running chain watermark are stale
// leftovers of an interrupted rebase and are skipped; a live delta must
// chain exactly from the current watermark. A missing directory or empty
// chain loads as an empty multiset at watermark 0.
func loadChain(dir string) (chain, error) {
	ch := chain{ms: multiset{}}
	magic, body, err := readSnapFile(filepath.Join(dir, snapName))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return ch, err
	case magic == snapMagic:
		ch.lsn, ch.ms, err = decodeBaseV1(body)
		if err != nil {
			return ch, err
		}
	case magic == snapMagicV2:
		ch.lsn, ch.ms, err = decodeBaseV2(body)
		if err != nil {
			return ch, err
		}
	default:
		return ch, fmt.Errorf("%w: snapshot missing magic", ErrCorrupt)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return ch, nil
		}
		return ch, fmt.Errorf("wal: snapshot: %w", err)
	}
	type dfile struct {
		seq  int
		name string
	}
	var dfs []dfile
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, deltaPrefix) {
			continue
		}
		seq, err := strconv.Atoi(name[len(deltaPrefix):])
		if err != nil {
			continue // deltaTmpName and other non-chain files
		}
		dfs = append(dfs, dfile{seq: seq, name: name})
	}
	sort.Slice(dfs, func(i, j int) bool { return dfs[i].seq < dfs[j].seq })
	for _, df := range dfs {
		if df.seq >= ch.nextSeq {
			ch.nextSeq = df.seq + 1
		}
		magic, body, err := readSnapFile(filepath.Join(dir, df.name))
		if err != nil {
			return ch, err
		}
		if magic != deltaMagic {
			return ch, fmt.Errorf("%w: delta %s has wrong magic", ErrCorrupt, df.name)
		}
		prev, lsn, w, err := decodeDelta(body)
		if err != nil {
			return ch, fmt.Errorf("%s: %w", df.name, err)
		}
		if lsn <= ch.lsn {
			continue // stale: already folded into the base by a rebase
		}
		if prev != ch.lsn {
			return ch, fmt.Errorf("%w: delta %s chains from LSN %d, chain is at %d", ErrCorrupt, df.name, prev, ch.lsn)
		}
		if err := applyDelta(ch.ms, w); err != nil {
			return ch, fmt.Errorf("%s: %w", df.name, err)
		}
		ch.lsn = lsn
		ch.deltas++
	}
	return ch, nil
}

// removeDeltas best-effort deletes every delta file in dir. Called after
// a rebase has folded the chain into a fresh base: any survivor of a
// crash here has a watermark at or below the base's and loadChain skips
// it.
func removeDeltas(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, deltaPrefix) {
			continue
		}
		if _, err := strconv.Atoi(name[len(deltaPrefix):]); err != nil {
			continue
		}
		_ = os.Remove(filepath.Join(dir, name))
	}
}

// Snapshot extends the snapshot chain and trims the covered log prefix.
// It never blocks queue operations: concurrent appends keep landing in
// the pending buffer and the file tail while the durable prefix is read
// back and compacted. The common cycle writes an incremental delta —
// O(operations since the last snapshot), not O(live state); every
// Options.RebaseEvery deltas the chain is folded into a fresh full base
// instead. Automatic snapshots (Options.SnapshotBytes) call this from
// the group-commit goroutine.
func (l *Log) Snapshot() error {
	if l.crashed.Load() {
		return ErrCrashed
	}
	l.snapMu.Lock()
	defer l.snapMu.Unlock()

	// Push the watermark as far as possible so the snapshot covers
	// everything appended so far.
	if err := l.Sync(); err != nil {
		return err
	}
	cutOff, cutLSN := l.durableWatermark()
	if cutLSN == l.chainLSN {
		if cutOff == 0 {
			return nil
		}
		// The durable prefix holds only records the chain already covers
		// (possible after a crash that installed a snapshot but never
		// trimmed): compact without writing a new chain element.
		return l.trimTo(cutOff)
	}

	// Read the durable prefix back. These bytes are stable: fsynced,
	// append-only, and trims are serialized by snapMu.
	prefix := make([]byte, cutOff)
	f, err := os.Open(filepath.Join(l.dir, walName))
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	_, err = io.ReadFull(f, prefix)
	f.Close()
	if err != nil {
		return fmt.Errorf("wal: snapshot: reading durable prefix: %w", err)
	}

	if l.deltaCount >= l.opts.RebaseEvery {
		// Rebase: fold base + deltas + window into one fresh base.
		ch, err := loadChain(l.dir)
		if err != nil {
			return err
		}
		if _, _, torn, err := replayMultiset(ch.ms, prefix, ch.lsn); err != nil {
			return err
		} else if torn >= 0 {
			return fmt.Errorf("%w: durable prefix of live log is torn at byte %d", ErrCorrupt, torn)
		}
		if err := l.writeSnapFile(snapTmpName, snapName, encodeBase(cutLSN, ch.ms)); err != nil {
			return err
		}
		removeDeltas(l.dir)
		l.deltaCount, l.deltaSeq = 0, 0
		l.rebases.Add(1)
	} else {
		w := window{}
		if _, _, torn, err := replayWindow(w, prefix, l.chainLSN); err != nil {
			return err
		} else if torn >= 0 {
			return fmt.Errorf("%w: durable prefix of live log is torn at byte %d", ErrCorrupt, torn)
		}
		if err := l.writeSnapFile(deltaTmpName, deltaName(l.deltaSeq), encodeDelta(l.chainLSN, cutLSN, w)); err != nil {
			return err
		}
		l.deltaSeq++
		l.deltaCount++
		l.deltaSnaps.Add(1)
	}
	l.chainLSN = cutLSN
	l.snaps.Add(1)
	return l.trimTo(cutOff)
}

// writeSnapFile writes one chain element atomically: temp file, fsync,
// rename, directory fsync. The fault.WALSnapshot point fires between
// chunks of the temp write, abandoning a part-written temp exactly as a
// mid-snapshot kill would.
func (l *Log) writeSnapFile(tmpName, finalName string, b []byte) error {
	tmp := filepath.Join(l.dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	const chunk = 1 << 12
	for off := 0; off < len(b); off += chunk {
		if l.faults != nil && l.faults.Fire(fault.WALSnapshot) {
			// Crash mid-snapshot: the temp is abandoned part-written and
			// the log's unsynced tail is cut like any other kill.
			f.Close()
			l.mu.Lock()
			total := l.written + int64(len(l.buf))
			d := l.durableOff.Load()
			l.crashLocked(d + int64(l.rng.Uint64n(uint64(total-d)+1)))
			l.mu.Unlock()
			return ErrCrashed
		}
		end := off + chunk
		if end > len(b) {
			end = len(b)
		}
		if _, err := f.Write(b[off:end]); err != nil {
			f.Close()
			return fmt.Errorf("wal: snapshot: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, finalName)); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if d, err := os.Open(l.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	l.snapBytes.Add(int64(len(b)))
	return nil
}

// trimTo drops the log prefix [0, cutOff) now covered by the snapshot
// chain: the tail is copied to a temp file, renamed over the log, and
// the live handle and offsets rebased. Serialized against Sync by syncMu
// so the durable watermark and the file identity move together. If a
// crash froze meanwhile the trim is skipped — the crash cut is in the
// old file's coordinates, and an untrimmed log is always safe because
// recovery skips records the chain covers.
func (l *Log) trimTo(cutOff int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()

	if l.crashed.Load() {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}

	tmp := filepath.Join(l.dir, walTmpName)
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: trim: %w", err)
	}
	if _, err := io.Copy(nf, io.NewSectionReader(l.f, cutOff, l.written-cutOff)); err != nil {
		nf.Close()
		return fmt.Errorf("wal: trim: copying tail: %w", err)
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return fmt.Errorf("wal: trim: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, walName)); err != nil {
		nf.Close()
		return fmt.Errorf("wal: trim: %w", err)
	}
	if d, err := os.Open(l.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	l.f.Close()
	l.f = nf
	l.written -= cutOff
	l.durableOff.Add(-cutOff)
	if _, err := l.f.Seek(l.written, 0); err != nil {
		return fmt.Errorf("wal: trim: %w", err)
	}
	l.trims.Add(1)
	return nil
}
