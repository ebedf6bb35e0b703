package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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
// rebaseEvery deltas the chain is folded into a fresh base and the delta
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

// replay walks the records of a log image and hands each one above
// sinceLSN to apply (records at or below it are already covered by the
// snapshot chain). It returns the last LSN walked, the number of records
// walked, and the offset of a torn tail (-1 if the image ends cleanly).
// A CRC-valid corrupt frame, or an error from apply, stops the walk.
func replay(b []byte, sinceLSN uint64, apply func(Record) error) (lastLSN, records uint64, tornOff int64, err error) {
	d := NewDecoder(b)
	for {
		rec, err := d.Next()
		switch {
		case errors.Is(err, io.EOF):
			return lastLSN, records, -1, nil
		case errors.Is(err, ErrTornTail):
			return lastLSN, records, d.Offset(), nil
		case err != nil:
			return lastLSN, records, -1, err
		}
		records++
		lastLSN = rec.LSN
		if rec.LSN > sinceLSN {
			if err := apply(rec); err != nil {
				return lastLSN, records, -1, err
			}
		}
	}
}

// isExtract reports whether a record kind logs extractions.
func isExtract(kind byte) bool { return kind == recExtract || kind == recExtractBatch }

// apply replays one log record into ms, copying payloads out of the
// image. A key extracted with no live instance means an extract record
// without a matching insert — impossible under the append-before-insert
// / append-after-extract ordering, so it is corruption.
func (ms multiset) apply(rec Record) error {
	for i, k := range rec.Keys {
		switch {
		case isExtract(rec.Kind):
			if !ms.extract(k) {
				return fmt.Errorf("%w: extract of key %d at LSN %d without a durable insert", ErrCorrupt, k, rec.LSN)
			}
		case rec.Vals != nil:
			ms.insert(k, cloneVal(rec.Vals[i]))
		default:
			ms.insert(k, nil)
		}
	}
	return nil
}

// apply accumulates one log record into w, for delta encoding. Window
// values alias the image; the caller keeps it alive until the delta is
// encoded.
func (w window) apply(rec Record) error {
	for i, k := range rec.Keys {
		wk := w[k]
		if wk == nil {
			wk = &windowKey{}
			w[k] = wk
		}
		switch {
		case isExtract(rec.Kind):
			wk.drops++
		case rec.Vals != nil:
			wk.adds = append(wk.adds, rec.Vals[i])
		default:
			wk.adds = append(wk.adds, nil)
		}
	}
	return nil
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

// encodeBase serializes a full multiset as a base file, in the v1
// (key-only) format when no instance carries a payload — bit-compatible
// with pre-codec snapshots — and in v2 otherwise:
//
//	magic  uint64 LE   snapMagic (v1) or snapMagicV2
//	lsn    uint64 LE   watermark: records with LSN <= lsn are covered
//	n      uint64 LE   number of distinct keys
//	n × (key uint64 LE, count uint64 LE)            v1
//	n × (key uint64 LE, count uint64 LE, payloads)  v2: count entries, see appendPayloads
//	crc    uint32 LE   CRC-32C of everything after magic
func encodeBase(lsn uint64, ms multiset) []byte {
	valued := ms.hasVals()
	magic, size := snapMagic, snapHeader+4+16*len(ms)
	if valued {
		magic = snapMagicV2
		for _, st := range ms {
			size += 4*int(st.count) + totalLen(st.vals)
		}
	}
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint64(b, magic)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ms)))
	for k, st := range ms {
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint64(b, uint64(st.count))
		if valued {
			b = appendPayloads(b, int(st.count), st.vals)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[8:], castagnoli))
}

// appendPayloads encodes n payload entries, the list format base v2 and
// delta files share: per entry vlen uint32 LE + vlen bytes, vlen ==
// noPayload marking a payload-less instance. vals nil means all n are
// payload-less.
func appendPayloads(b []byte, n int, vals [][]byte) []byte {
	for i := 0; i < n; i++ {
		if vals == nil || vals[i] == nil {
			b = binary.LittleEndian.AppendUint32(b, noPayload)
			continue
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(vals[i])))
		b = append(b, vals[i]...)
	}
	return b
}

// readPayloads decodes n entries of the appendPayloads format from body
// at off, copying each payload out of the file image, and returns the
// offset after them. file and k name the entries' owner in errors.
func readPayloads(body []byte, off int, n uint64, file string, k uint64) ([][]byte, int, error) {
	// Every entry takes at least its 4-byte vlen, which bounds n before
	// anything is allocated for it.
	if n > uint64(len(body)-off)/4 {
		return nil, 0, fmt.Errorf("%w: %s key %d claims %d payloads in %d body bytes", ErrCorrupt, file, k, n, len(body)-off)
	}
	vals := make([][]byte, 0, n)
	for j := uint64(0); j < n; j++ {
		if len(body)-off < 4 {
			return nil, 0, fmt.Errorf("%w: %s key %d payload %d overruns body", ErrCorrupt, file, k, j)
		}
		vlen := binary.LittleEndian.Uint32(body[off:])
		off += 4
		if vlen == noPayload {
			vals = append(vals, nil)
			continue
		}
		if int(vlen) > len(body)-off {
			return nil, 0, fmt.Errorf("%w: %s key %d payload %d overruns body", ErrCorrupt, file, k, j)
		}
		vals = append(vals, cloneVal(body[off:off+int(vlen)]))
		off += int(vlen)
	}
	return vals, off, nil
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
		b = appendPayloads(b, len(wk.adds), wk.adds)
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

// decodeBase parses a base body into a multiset: v1 (key-only) entries
// are (key, count), v2 (valued) entries are followed by count payloads,
// copied out of the file image.
func decodeBase(body []byte, valued bool) (lsn uint64, ms multiset, err error) {
	if len(body) < 16 {
		return 0, nil, fmt.Errorf("%w: snapshot header truncated", ErrCorrupt)
	}
	lsn = binary.LittleEndian.Uint64(body)
	n := binary.LittleEndian.Uint64(body[8:])
	// Every entry takes at least 16 bytes. Bound n by division: 16*n
	// wraps for n >= 2^60, and a wrapped count once passed a multiplied
	// check and indexed past the body.
	if n > uint64(len(body)-16)/16 {
		return 0, nil, fmt.Errorf("%w: snapshot count %d implausible for %d body bytes", ErrCorrupt, n, len(body))
	}
	ms = make(multiset, n)
	off := 16
	for i := uint64(0); i < n; i++ {
		if len(body)-off < 16 {
			return 0, nil, fmt.Errorf("%w: snapshot key %d overruns body", ErrCorrupt, i)
		}
		k := binary.LittleEndian.Uint64(body[off:])
		c := binary.LittleEndian.Uint64(body[off+8:])
		off += 16
		if int64(c) <= 0 {
			return 0, nil, fmt.Errorf("%w: snapshot key %d has count %d", ErrCorrupt, k, int64(c))
		}
		if _, dup := ms[k]; dup {
			return 0, nil, fmt.Errorf("%w: snapshot key %d duplicated", ErrCorrupt, k)
		}
		st := &keyState{count: int64(c)}
		if valued {
			if st.vals, off, err = readPayloads(body, off, c, "snapshot", k); err != nil {
				return 0, nil, err
			}
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
		if drops < 0 {
			return 0, 0, nil, fmt.Errorf("%w: delta key %d has drops %d", ErrCorrupt, k, drops)
		}
		if _, dup := w[k]; dup {
			return 0, 0, nil, fmt.Errorf("%w: delta key %d duplicated", ErrCorrupt, k)
		}
		wk := &windowKey{drops: drops}
		if wk.adds, off, err = readPayloads(body, off, uint64(adds), "delta", k); err != nil {
			return 0, 0, nil, err
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
	case magic == snapMagic || magic == snapMagicV2:
		if ch.lsn, ch.ms, err = decodeBase(body, magic == snapMagicV2); err != nil {
			return ch, err
		}
	default:
		return ch, fmt.Errorf("%w: snapshot missing magic", ErrCorrupt)
	}

	dfs, err := deltaFiles(dir)
	if err != nil {
		return ch, err
	}
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
	dfs, _ := deltaFiles(dir) // best effort: an unlistable dir keeps its deltas
	for _, df := range dfs {
		_ = os.Remove(filepath.Join(dir, df.name))
	}
}

// deltaFile is one delta file of a chain directory.
type deltaFile struct {
	seq  int
	name string
}

// deltaFiles lists the delta files of dir in sequence order. A name that
// does not end in a sequence number (deltaTmpName, anything else) is not
// a delta; a missing directory has none.
func deltaFiles(dir string) ([]deltaFile, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	var dfs []deltaFile
	for _, e := range ents {
		if s, ok := strings.CutPrefix(e.Name(), deltaPrefix); ok {
			if seq, err := strconv.Atoi(s); err == nil {
				dfs = append(dfs, deltaFile{seq, e.Name()})
			}
		}
	}
	slices.SortFunc(dfs, func(a, b deltaFile) int { return cmp.Compare(a.seq, b.seq) })
	return dfs, nil
}

// Snapshot extends the snapshot chain and trims the covered log prefix.
// It never blocks queue operations: concurrent appends keep landing in
// the pending buffer and the file tail while the durable prefix is read
// back and compacted. The common cycle writes an incremental delta —
// O(operations since the last snapshot), not O(live state); every
// rebaseEvery (8) deltas the chain is folded into a fresh full base
// instead. Automatic snapshots (Options.SnapshotBytes) call this from
// the group-commit goroutine.
func (l *Log) Snapshot() error {
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

	// A rebase folds base + deltas + window into one fresh base; otherwise
	// the window alone becomes the next delta.
	rebase := l.deltaCount >= rebaseEvery
	ch, w := chain{lsn: l.chainLSN}, window{}
	apply := w.apply
	if rebase {
		if ch, err = loadChain(l.dir); err != nil {
			return err
		}
		apply = ch.ms.apply
	}
	if _, _, torn, err := replay(prefix, ch.lsn, apply); err != nil {
		return err
	} else if torn >= 0 {
		return fmt.Errorf("%w: durable prefix of live log is torn at byte %d", ErrCorrupt, torn)
	}
	if rebase {
		if err := l.writeSnapFile(snapTmpName, snapName, encodeBase(cutLSN, ch.ms)); err != nil {
			return err
		}
		removeDeltas(l.dir)
		l.deltaCount, l.deltaSeq = 0, 0
		l.rebases.Add(1)
	} else {
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
// rename, directory fsync. It fails unless the rename is durable, so
// Snapshot never trims a log prefix that only an undurable chain
// element covers.
func (l *Log) writeSnapFile(tmpName, finalName string, b []byte) error {
	tmp := filepath.Join(l.dir, tmpName)
	f, err := l.opts.FS.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := l.opts.FS.Rename(tmp, filepath.Join(l.dir, finalName)); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := l.opts.FS.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	l.snapBytes.Add(int64(len(b)))
	return nil
}

// trimTo drops the log prefix [0, cutOff) now covered by the snapshot
// chain: the tail is copied to a temp file, renamed over the log, and
// the live handle and offsets rebased. Serialized against Sync by syncMu
// so the durable watermark and the file identity move together.
func (l *Log) trimTo(cutOff int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()

	if err := l.flushLocked(); err != nil {
		return err
	}

	tmp := filepath.Join(l.dir, walTmpName)
	nf, err := l.opts.FS.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: trim: %w", err)
	}
	// The copy leaves nf's offset at its end, where the next append goes.
	if _, err := io.Copy(nf, io.NewSectionReader(l.f, cutOff, l.written-cutOff)); err != nil {
		nf.Close()
		return fmt.Errorf("wal: trim: copying tail: %w", err)
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return fmt.Errorf("wal: trim: %w", err)
	}
	if err := l.opts.FS.Rename(tmp, filepath.Join(l.dir, walName)); err != nil {
		nf.Close()
		return fmt.Errorf("wal: trim: %w", err)
	}
	l.f.Close()
	l.f = nf
	l.written -= cutOff
	l.durableOff.Add(-cutOff)
	if err := l.opts.FS.SyncDir(l.dir); err != nil {
		// A crash could bring the old log back, and it lacks every record
		// appended from here on: acknowledge none of them.
		l.err = fmt.Errorf("wal: trim: %w", err)
		return l.err
	}
	l.trims.Add(1)
	return nil
}
