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

// Online snapshots compact the log without quiescing the queue: the
// durable prefix [0, durableOff] is a stable byte range (fsynced,
// append-only, never rewritten), and because inserts are logged before
// they become visible and extracts after removal, replaying it yields the
// exact durable state at the watermark LSN, while concurrent operations
// keep appending past the watermark untouched.
//
// Snapshots form an incremental CHAIN: an optional base file (queue.snap,
// the full multiset at some watermark) followed by numbered delta files
// (queue.snap.dNNNNNN), each encoding only the net per-key effect of the
// log window between two watermarks, so a delta costs O(window), not
// O(live state). Every rebaseEvery deltas the chain is folded into a
// fresh base and the delta files deleted, bounding recovery cost and
// directory clutter. Replay attributes each key-only extract to the
// OLDEST live instance of its key (FIFO), which makes deltas compose;
// every chain file lists its keys in ascending order, so a rebase and
// Recover fold the chain as a merge of sorted runs (run.go).
//
// Each chain element is written to a temp file, fsynced, and renamed into
// place; only then is the covered log prefix trimmed. Recovery skips log
// records at or below the chain watermark, so a crash anywhere in the
// sequence (temp abandoned, delta renamed but log untrimmed, base renamed
// but stale deltas undeleted) recovers to the same state: stale deltas
// are recognized by their watermark being at or below the chain's and
// skipped.

// Snapshot-chain file magics. The base comes in two formats — v1
// (key-only, the original format, still written whenever no live
// instance carries a payload so key-only directories stay bit-compatible)
// and v2 (per-instance payload bytes). Deltas have their own magic.
const (
	snapMagic   uint64 = 0x31504e5351534d5a // "ZMSQSNP1" key-only base
	snapMagicV2 uint64 = 0x32504e5351534d5a // "ZMSQSNP2" valued base
	deltaMagic  uint64 = 0x44504e5351534d5a // "ZMSQSNPD" incremental delta
)

// noPayload is the vlen sentinel marking a payload-less instance in base
// v2 and delta files (distinct from 0, a present-but-empty payload).
const noPayload = ^uint32(0)

// encodeBase folds runs (see merge) into a base file at watermark lsn,
// sized exactly by a first pass, in the v1 (key-only) format when no
// surviving instance carries a payload, bit-compatible with pre-codec
// snapshots, and in v2 otherwise. Entries are in ascending key order:
//
//	magic  uint64 LE   snapMagic (v1) or snapMagicV2
//	lsn    uint64 LE   watermark: records with LSN <= lsn are covered
//	n      uint64 LE   number of distinct keys
//	n × (key uint64 LE, count uint64 LE)            v1
//	n × (key uint64 LE, count uint64 LE, payloads)  v2: count entries, see appendPayload
//	crc    uint32 LE   CRC-32C of everything after magic
func encodeBase(lsn uint64, runs []*run) ([]byte, error) {
	fs, err := sizeFold(runs)
	if err != nil {
		return nil, err
	}
	magic, size := snapMagic, 28+16*fs.keys // header 24, CRC 4
	if fs.valued {
		magic, size = snapMagicV2, 28+int(fs.v2Bytes)
	}
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint64(b, magic)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = binary.LittleEndian.AppendUint64(b, uint64(fs.keys))
	err = fold(runs, func(k uint64, live, _ int64) error {
		if live > 0 {
			b = binary.LittleEndian.AppendUint64(b, k)
			b = binary.LittleEndian.AppendUint64(b, uint64(live))
		}
		return nil
	}, func(v []byte, n int64) {
		for ; fs.valued && n > 0; n-- {
			b = appendPayload(b, v)
		}
	})
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[8:], castagnoli)), err
}

// appendPayload encodes one payload entry of a v2 base or delta: vlen
// uint32 LE + vlen bytes, or vlen noPayload for a payload-less v (nil).
func appendPayload(b, v []byte) []byte {
	if v == nil {
		return binary.LittleEndian.AppendUint32(b, noPayload)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// encodeDelta serializes a window's sorted events as a delta file, per
// key in ascending order the window's extract count and its inserts in
// log order, sized exactly by a first pass:
//
//	magic   uint64 LE   deltaMagic
//	prev    uint64 LE   chain watermark this delta extends (0 = none)
//	lsn     uint64 LE   new chain watermark
//	n       uint64 LE   number of keys touched
//	n × (key uint64 LE, drops uint64 LE, adds uint32 LE, adds × payload)
//	crc     uint32 LE
func encodeDelta(prevLSN, lsn uint64, w *run) []byte {
	// inserts emits the head key's insert payloads and counts its extracts.
	inserts := func(emit func(v []byte)) (drops int) {
		for _, e := range w.ev[w.lo:w.hi] {
			switch e.ref & 3 {
			case evExtract:
				drops++
			case evKeyOnly:
				emit(nil)
			default:
				emit(w.val(e.ref))
			}
		}
		return drops
	}
	one := []*run{w}
	n, size := 0, 32+4
	merge(one, func(uint64, []*run) error {
		n, size = n+1, size+20
		inserts(func(v []byte) { size += 4 + len(v) })
		return nil
	})
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint64(b, deltaMagic)
	b = binary.LittleEndian.AppendUint64(b, prevLSN)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	merge(one, func(k uint64, _ []*run) error {
		b = binary.LittleEndian.AppendUint64(b, k)
		at := len(b) // drops and adds go here, once known
		b = append(b, make([]byte, 12)...)
		drops := inserts(func(v []byte) { b = appendPayload(b, v) })
		binary.LittleEndian.PutUint64(b[at:], uint64(drops))
		binary.LittleEndian.PutUint32(b[at+8:], uint32(w.hi-w.lo-drops))
		return nil
	})
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

// deltaName is the file name of delta sequence number seq.
func deltaName(seq int) string { return fmt.Sprintf("%s%06d", deltaPrefix, seq) }

// chain is a snapshot chain read from disk: the runs of its base and
// live deltas in chain order, its watermark, how many deltas contributed,
// and where the delta numbering left off.
type chain struct {
	lsn     uint64
	runs    []*run
	deltas  int
	nextSeq int
}

// loadChain reads and validates the whole snapshot chain of dir: the
// base (either format), then every delta in sequence order. Deltas whose
// watermark is at or below the running chain watermark are stale
// leftovers of an interrupted rebase and are skipped; a live delta must
// chain exactly from the current watermark; what an entry does to its
// key is checked when the runs are folded. A missing directory or empty
// chain loads as no runs at watermark 0.
func loadChain(dir string) (chain, error) {
	var ch chain
	magic, body, err := readSnapFile(filepath.Join(dir, snapName))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return ch, err
	case magic == snapMagic || magic == snapMagicV2:
		r, err := newRun(snapName, magic, body)
		if err != nil {
			return ch, err
		}
		ch.lsn, ch.runs = r.lsn, append(ch.runs, r)
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
		r, err := newRun(df.name, magic, body)
		if err != nil {
			return ch, err
		}
		if r.lsn <= ch.lsn {
			continue // stale: already folded into the base by a rebase
		}
		if r.prev != ch.lsn {
			return ch, fmt.Errorf("%w: delta %s chains from LSN %d, chain is at %d", ErrCorrupt, df.name, r.prev, ch.lsn)
		}
		ch.lsn, ch.runs = r.lsn, append(ch.runs, r)
		ch.deltas++
	}
	return ch, nil
}

// removeDeltas best-effort deletes every delta file in the log's
// directory. Called after a rebase has folded the chain into a fresh
// base: any survivor of a crash or a failed remove here has a watermark
// at or below the base's and loadChain skips it.
func (l *Log) removeDeltas() {
	dfs, _ := deltaFiles(l.dir) // best effort: an unlistable dir keeps its deltas
	for _, df := range dfs {
		_ = l.opts.FS.Remove(filepath.Join(l.dir, df.name))
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
// back and compacted. Automatic snapshots (Options.SnapshotBytes) call
// this from the group-commit goroutine.
//
// With Options.SnapshotBytes set, the prefix is read in chunks of at most
// that many bytes into one buffer, and each chunk becomes one chain
// element, so a snapshot never holds more than a chunk of log however far
// the log ran ahead of the last one; a record larger than a chunk is a
// chunk of its own. Without it, the whole prefix is one chunk. The prefix
// is trimmed once, after the last element is installed.
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
	f, err := os.Open(filepath.Join(l.dir, walName))
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	defer f.Close()
	chunk := cutOff
	if sb := l.opts.SnapshotBytes; sb > 0 && sb < cutOff {
		chunk = sb
	}
	var buf []byte
	for off := int64(0); off < cutOff; {
		n := min(chunk, cutOff-off)
		for {
			if int64(cap(buf)) < n {
				buf = make([]byte, n)
			}
			if _, err := f.ReadAt(buf[:n], off); err != nil {
				return fmt.Errorf("wal: snapshot: reading durable prefix: %w", err)
			}
			// A chunk that cannot hold the first record's frame grows to it.
			need := min(firstFrameLen(buf[:n]), cutOff-off)
			if need <= n {
				break
			}
			n = need
		}
		used, err := l.snapshotChunk(buf[:n], off, off+n == cutOff, cutLSN)
		if err != nil {
			return err
		}
		off += used
	}
	return l.trimTo(cutOff)
}

// firstFrameLen is the length of the frame b starts with, as its header
// states it (a header claiming more than maxPayload counts as
// maxPayload), or headerSize when b is too short to hold a header.
func firstFrameLen(b []byte) int64 {
	if len(b) < headerSize {
		return headerSize
	}
	return headerSize + int64(min(binary.LittleEndian.Uint32(b), maxPayload))
}

// snapshotChunk makes the records of one chunk of the durable prefix,
// which starts at byte off of the log, into the next chain element, and
// returns how many bytes of it those records take: the chunk ends at the
// last complete record, and only the final chunk (the one ending at the
// durable watermark cutLSN) must end on a record boundary. A chunk holding
// only records the chain already covers writes nothing.
func (l *Log) snapshotChunk(b []byte, off int64, final bool, cutLSN uint64) (int64, error) {
	// A rebase folds base + deltas + chunk into one fresh base; otherwise
	// the chunk alone becomes the next delta.
	rebase := l.deltaCount >= rebaseEvery
	ch := chain{lsn: l.chainLSN}
	if rebase {
		var err error
		if ch, err = loadChain(l.dir); err != nil {
			return 0, err
		}
	}
	ev, lsn, _, torn, err := scanLog(b, ch.lsn, l.ev[:0])
	if err != nil {
		return 0, err
	}
	used := int64(len(b))
	if torn >= 0 {
		if final || torn == 0 {
			return 0, fmt.Errorf("%w: durable prefix of live log is torn at byte %d", ErrCorrupt, off+torn)
		}
		used = torn
	}
	if final {
		lsn = cutLSN
	}
	l.ev, l.evTmp = sortEvents(ev, l.evTmp)
	if lsn <= l.chainLSN {
		return used, nil
	}
	win := &run{name: walName, img: b, ev: l.ev}
	if rebase {
		img, err := encodeBase(lsn, append(ch.runs, win))
		if err != nil {
			return 0, err
		}
		if err := l.writeSnapFile(snapTmpName, snapName, img); err != nil {
			return 0, err
		}
		l.removeDeltas()
		l.deltaCount, l.deltaSeq = 0, 0
		l.rebases.Add(1)
	} else {
		if err := l.writeSnapFile(deltaTmpName, deltaName(l.deltaSeq), encodeDelta(l.chainLSN, lsn, win)); err != nil {
			return 0, err
		}
		l.deltaSeq++
		l.deltaCount++
		l.deltaSnaps.Add(1)
	}
	l.chainLSN = lsn
	l.snaps.Add(1)
	return used, nil
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
	if _, err = f.Write(b); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.opts.FS.Rename(tmp, filepath.Join(l.dir, finalName))
	}
	if err == nil {
		err = l.opts.FS.SyncDir(l.dir)
	}
	if err != nil {
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
	if _, _, err := l.flush(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	tmp := filepath.Join(l.dir, walTmpName)
	nf, err := l.opts.FS.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: trim: %w", err)
	}
	// The copy leaves nf's offset at its end, where the next append goes.
	if _, err = io.Copy(nf, io.NewSectionReader(l.f, cutOff, l.written-cutOff)); err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = l.opts.FS.Rename(tmp, filepath.Join(l.dir, walName))
	}
	if err != nil {
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
