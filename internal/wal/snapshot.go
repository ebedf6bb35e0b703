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
	"time"
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
// The automatic cycle (Options.SnapshotBytes) adds one chain element per
// whole SnapshotBytes chunk of log and leaves a shorter remainder in the
// log for the next cycle, so rebaseEvery counts full chunks; an explicit
// Snapshot covers everything. Chain files never exist whole in memory:
// bases and deltas are streamed into their temp files through one 64 KiB
// buffer with a running CRC-32C, and a rebase or Recover streams each
// chain file through a 64 KiB buffer whose entries it parses in place. A
// rebase folds the chain once, writing the base as it goes, and puts the
// base's key count, which only the fold learns, over a placeholder at
// the end (encodeBase). A rebase therefore holds the chunk of log it
// folds in, one read buffer per chain file and the write buffer — about
// SnapshotBytes + (rebaseEvery + 2) × 64 KiB, whatever the size of the
// base; Recover, which folds once too, adds the state it returns, whose
// payloads share 64 KiB arena chunks.
// Files written before keys were sorted cannot be streamed in key order
// and are still loaded whole and sorted.
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

// writeBufSize is the buffer a chain file is written through.
const writeBufSize = 64 << 10

// baseHeader is the length of a base's header: magic, lsn and key count.
const baseHeader = 24

// snapFile is what a chain file is written to, a File in a Log. A base
// is written in one pass and its key count put in place last, and a
// base whose format was guessed wrong is started again, so the file must
// seek and truncate.
type snapFile interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
}

// snapWriter streams one chain file to dst through a fixed buffer,
// keeping a running CRC-32C of everything after the magic (of a base
// written in one pass, of everything after its header). A write error
// sticks and is reported by end.
type snapWriter struct {
	dst  snapFile
	buf  []byte
	skip int // bytes at buf's front outside the CRC (the magic or header)
	crc  uint32
	n    int64 // bytes written to dst
	err  error
}

// begin starts a file with magic.
func (w *snapWriter) begin(magic uint64) {
	if w.buf == nil {
		w.buf = make([]byte, 0, writeBufSize)
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf[:0], magic)
	w.skip, w.crc, w.n, w.err = 8, 0, 0, nil
}

// restart empties the file for another begin, or reports the write error
// that stopped it.
func (w *snapWriter) restart() error {
	if w.err != nil {
		return w.err
	}
	if err := w.dst.Truncate(0); err != nil {
		return err
	}
	_, err := w.dst.Seek(0, io.SeekStart)
	return err
}

func (w *snapWriter) write(b []byte) {
	if w.err == nil {
		var n int
		n, w.err = w.dst.Write(b)
		w.n += int64(n)
	}
}

// flush writes the buffer out.
func (w *snapWriter) flush() {
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.skip:])
	w.write(w.buf)
	w.buf, w.skip = w.buf[:0], 0
}

func (w *snapWriter) u64(x uint64) {
	if len(w.buf)+8 > cap(w.buf) {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, x)
}

func (w *snapWriter) u32(x uint32) {
	if len(w.buf)+4 > cap(w.buf) {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, x)
}

// payload writes one payload entry of a v2 base or delta: vlen uint32 LE
// + vlen bytes, or vlen noPayload for a payload-less v (nil).
func (w *snapWriter) payload(v []byte) {
	if v == nil {
		w.u32(noPayload)
		return
	}
	w.u32(uint32(len(v)))
	if len(w.buf)+len(v) > cap(w.buf) {
		w.flush()
	}
	if len(v) > cap(w.buf) {
		w.crc = crc32.Update(w.crc, castagnoli, v)
		w.write(v)
		return
	}
	w.buf = append(w.buf, v...)
}

// end appends the CRC, writes what is buffered and reports the first
// write error.
func (w *snapWriter) end() error {
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.skip:])
	w.buf = binary.LittleEndian.AppendUint32(w.buf, w.crc)
	w.write(w.buf)
	w.buf = w.buf[:0]
	return w.err
}

// endBase ends a base begun with a placeholder key count, whose running
// CRC covers only its entries: the file's CRC combines the header's
// (lsn‖keys) with the entries', and the count goes into the buffer when
// nothing was written yet, or over the placeholder, by seeking back to
// it, when the file has grown past the buffer. The patch overwrites
// bytes already counted, so it adds nothing to w.n.
func (w *snapWriter) endBase(lsn, keys uint64) error {
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.skip:])
	w.skip = len(w.buf)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:], lsn)
	binary.LittleEndian.PutUint64(hdr[8:], keys)
	w.crc = crc32cCombine(crc32.Checksum(hdr[:], castagnoli), w.crc, w.n+int64(len(w.buf))-baseHeader)
	patch := w.n > 0
	if !patch {
		copy(w.buf[16:baseHeader], hdr[8:])
	}
	if err := w.end(); err != nil || !patch {
		return err
	}
	if _, err := w.dst.Seek(16, io.SeekStart); err != nil {
		return err
	}
	_, err := w.dst.Write(hdr[8:])
	return err
}

// encodeBase folds runs (see merge) into a base file at watermark lsn,
// streamed to w in one pass. The format is guessed first (guessValued):
// v1 (key-only) when no surviving instance carries a payload,
// bit-compatible with pre-codec snapshots, and v2 otherwise. The header
// goes out with a placeholder key count, which endBase puts in place once
// the fold has counted the keys. A fold that proves the guess wrong
// (errGuess) or meets a file out of key order (errUnsorted) starts the
// file again: in the other format, or with that file loaded whole.
// Corrupt input fails the fold partway, with the file unfinished, and the
// caller renames nothing. Entries are in ascending key order:
//
//	magic  uint64 LE   snapMagic (v1) or snapMagicV2
//	lsn    uint64 LE   watermark: records with LSN <= lsn are covered
//	n      uint64 LE   number of distinct keys
//	n × (key uint64 LE, count uint64 LE)            v1
//	n × (key uint64 LE, count uint64 LE, payloads)  v2: count entries, see snapWriter.payload
//	crc    uint32 LE   CRC-32C of everything after magic
func encodeBase(w *snapWriter, lsn uint64, runs []*run) error {
	valued := guessValued(runs)
	for {
		err := foldBase(w, lsn, runs, valued)
		guessed := errors.Is(err, errGuess)
		if !guessed && !errors.Is(err, errUnsorted) {
			return err
		}
		if err := w.restart(); err != nil {
			return err
		}
		if guessed {
			valued = !valued
		} else if err := loadUnsorted(runs); err != nil {
			return err
		}
	}
}

// errGuess is a base fold finding its format guessed wrong.
var errGuess = errors.New("wal: base format guessed wrong")

// guessValued guesses, before the fold, whether a payload survives it:
// yes when the base is v2 or the log window carries a payload. A delta's
// payloads are not known until it is read, so they do not count. A chain
// on a v1 base is guessed key-only whatever else it holds: the base's
// counts, unchecked until its CRC is read at its end, would each become
// that many payload entries of a v2 file; a wrong key-only guess folds
// the whole chain, CRCs included, before any payload entry is written.
func guessValued(runs []*run) bool {
	valued := false
	for _, r := range runs {
		switch {
		case r.src != nil && r.src.magic == snapMagic:
			return false
		case r.src != nil:
			valued = valued || r.src.magic == snapMagicV2
		case !valued:
			valued = slices.ContainsFunc(r.ev, func(e event) bool { return e.ref&3 == evPayload })
		}
	}
	return valued
}

// foldBase is one pass of encodeBase, in the format valued guesses: it
// writes the header with a placeholder key count, streams the entries
// while it counts the keys, and fails at the end with errGuess if a
// payload survived a key-only guess or none survived a valued one.
func foldBase(w *snapWriter, lsn uint64, runs []*run, valued bool) error {
	magic := snapMagic
	if valued {
		magic = snapMagicV2
	}
	w.begin(magic)
	w.u64(lsn)
	w.u64(0) // the key count, put in place by endBase
	w.skip = len(w.buf)
	var keys uint64
	var live int64
	payload := false
	err := fold(runs, func(k uint64, n, _ int64) error {
		if n == 0 {
			return nil
		}
		// live <= maxLive before the add, and one key adds at most a base's
		// count plus what deltas and a log image hold: the sum cannot wrap.
		if keys, live = keys+1, live+n; live > maxLive {
			return errTooLive
		}
		w.u64(k)
		w.u64(uint64(n))
		return nil
	}, func(v []byte, n int64) {
		payload = payload || v != nil
		for ; valued && n > 0; n-- {
			w.payload(v)
		}
	})
	if err == nil && payload != valued {
		err = errGuess
	}
	if err != nil {
		return err
	}
	return w.endBase(lsn, keys)
}

// encodeDelta streams a window's sorted events to w as a delta file, per
// key in ascending order the window's extract count and its inserts in
// log order:
//
//	magic   uint64 LE   deltaMagic
//	prev    uint64 LE   chain watermark this delta extends (0 = none)
//	lsn     uint64 LE   new chain watermark
//	n       uint64 LE   number of keys touched
//	n × (key uint64 LE, drops uint64 LE, adds uint32 LE, adds × payload)
//	crc     uint32 LE
func encodeDelta(w *snapWriter, prevLSN, lsn uint64, win *run) error {
	ev := win.ev
	n := 0
	for i := range ev {
		if i == 0 || ev[i].key != ev[i-1].key {
			n++
		}
	}
	w.begin(deltaMagic)
	w.u64(prevLSN)
	w.u64(lsn)
	w.u64(uint64(n))
	for i := 0; i < len(ev); {
		j, drops := i, 0
		for ; j < len(ev) && ev[j].key == ev[i].key; j++ {
			if ev[j].ref&3 == evExtract {
				drops++
			}
		}
		w.u64(ev[i].key)
		w.u64(uint64(drops))
		w.u32(uint32(j - i - drops))
		for _, e := range ev[i:j] {
			switch e.ref & 3 {
			case evKeyOnly:
				w.payload(nil)
			case evPayload:
				w.payload(win.val(e.ref))
			}
		}
		i = j
	}
	return w.end()
}

// deltaName is the file name of delta sequence number seq.
func deltaName(seq int) string { return fmt.Sprintf("%s%06d", deltaPrefix, seq) }

// chain is a snapshot chain read from disk: the streamed runs of its base
// and live deltas in chain order, its watermark, how many deltas
// contributed, and where the delta numbering left off; and the files and
// read buffers its runs hold until close.
type chain struct {
	lsn     uint64
	runs    []*run
	deltas  int
	nextSeq int
	files   []*os.File
	spare   []*run // runs to reuse, buffers and all: the first used are taken
	used    int
}

// openFile opens the chain file name of dir as a streamed run, a missing
// one as os.ErrNotExist. A file too short to hold a magic and a CRC is
// ErrCorrupt; chain files are only ever installed by an atomic rename
// after fsync, so unlike the log they have no torn-tail excuse. The CRC
// is checked when the run is read to its end.
func (ch *chain) openFile(dir, name string) (r *run, magic uint64, err error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, err
		}
		return nil, 0, fmt.Errorf("wal: snapshot: %w", err)
	}
	ch.files = append(ch.files, f)
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("wal: snapshot: %w", err)
	}
	var m [8]byte
	if fi.Size() < 12 {
		return nil, 0, fmt.Errorf("%w: snapshot file %s too short", ErrCorrupt, name)
	}
	if _, err := io.ReadFull(f, m[:]); err != nil {
		return nil, 0, fmt.Errorf("wal: snapshot: %w", err)
	}
	magic = binary.LittleEndian.Uint64(m[:])
	if magic != snapMagic && magic != snapMagicV2 && magic != deltaMagic {
		return nil, magic, nil
	}
	if ch.used == len(ch.spare) {
		ch.spare = append(ch.spare, &run{})
	}
	r = ch.spare[ch.used]
	ch.used++
	return r, magic, r.open(name, f, fi.Size()-12, magic)
}

// close closes the chain's files and returns its runs, for the next
// chain to reuse with their buffers.
func (ch *chain) close() []*run {
	for _, f := range ch.files {
		f.Close()
	}
	return ch.spare
}

// loadChain opens the whole snapshot chain of dir: the base (either
// format), then every delta in sequence order, each as a streamed run,
// reusing the runs of spare first. Deltas whose watermark
// is at or below the running chain watermark are stale leftovers of an
// interrupted rebase: their CRC is checked and they are skipped. A live
// delta must chain exactly from the current watermark; what an entry
// does to its key is checked when the runs are folded. A missing
// directory or empty chain loads as no runs at watermark 0. Close the
// chain after use, also on error.
func loadChain(dir string, spare []*run) (chain, error) {
	ch := chain{spare: spare}
	r, magic, err := ch.openFile(dir, snapName)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return ch, err
	case magic == snapMagic || magic == snapMagicV2:
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
		r, magic, err := ch.openFile(dir, df.name)
		if err != nil {
			return ch, err
		}
		if magic != deltaMagic {
			return ch, fmt.Errorf("%w: delta %s has wrong magic", ErrCorrupt, df.name)
		}
		if r.lsn <= ch.lsn {
			// Stale: already folded into the base by a rebase.
			if err := r.src.skim(df.name); err != nil {
				return ch, err
			}
			continue
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

// Snapshot extends the snapshot chain over the whole durable prefix and
// trims it from the log. It never blocks queue operations: concurrent
// appends keep landing in the pending buffer and the file tail while the
// durable prefix is read back and compacted.
//
// With Options.SnapshotBytes set, the prefix is read in chunks of at most
// that many bytes into one buffer, kept across snapshots, and each chunk
// becomes one chain element, so a snapshot never holds more than a chunk
// of log however far the log ran ahead of the last one; a record larger
// than a chunk is a chunk of its own. Without it, the whole prefix is one
// chunk. The prefix is trimmed once, after the last element is installed.
func (l *Log) Snapshot() error { return l.snapshot(false) }

// snapshot is Snapshot; with whole set (the automatic cycle) it covers
// only whole SnapshotBytes chunks and leaves a shorter remainder in the
// log for the next cycle, so a cycle adds one chain element per chunk of
// log and rebaseEvery counts full chunks.
func (l *Log) snapshot(whole bool) error {
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
	if sb := l.opts.SnapshotBytes; sb > 0 && (sb < cutOff || whole) {
		chunk = sb
	}
	buf := l.chunk
	off := int64(0)
	for off < cutOff {
		n := min(chunk, cutOff-off)
		if whole && n < chunk {
			break
		}
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
	if l.opts.SnapshotBytes > 0 {
		l.chunk = buf // at most a chunk, or one record larger than that
	}
	if off == 0 {
		return nil
	}
	return l.trimTo(off)
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
	start := time.Now()
	// A rebase folds base + deltas + chunk into one fresh base; otherwise
	// the chunk alone becomes the next delta.
	rebase := l.deltaCount >= rebaseEvery
	ch := chain{lsn: l.chainLSN}
	if rebase {
		var err error
		ch, err = loadChain(l.dir, l.chainRuns)
		defer func() { l.chainRuns = ch.close() }()
		if err != nil {
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
		if err := l.writeSnapFile(snapTmpName, snapName, func(w *snapWriter) error {
			return encodeBase(w, lsn, append(ch.runs, win))
		}); err != nil {
			return 0, err
		}
		l.removeDeltas()
		l.deltaCount, l.deltaSeq = 0, 0
		l.rebases.Add(1)
		l.rebaseNs.Add(int64(time.Since(start)))
	} else {
		if err := l.writeSnapFile(deltaTmpName, deltaName(l.deltaSeq), func(w *snapWriter) error {
			return encodeDelta(w, l.chainLSN, lsn, win)
		}); err != nil {
			return 0, err
		}
		l.deltaSeq++
		l.deltaCount++
		l.deltaSnaps.Add(1)
		l.deltaNs.Add(int64(time.Since(start)))
	}
	l.chainLSN = lsn
	l.snaps.Add(1)
	return used, nil
}

// writeSnapFile writes one chain element atomically: encode streams it
// to a temp file through the log's one write buffer, then fsync, rename,
// directory fsync. It fails unless the rename is durable, so Snapshot
// never trims a log prefix that only an undurable chain element covers.
func (l *Log) writeSnapFile(tmpName, finalName string, encode func(*snapWriter) error) error {
	tmp := filepath.Join(l.dir, tmpName)
	f, err := l.opts.FS.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	l.sw.dst = f
	if err = encode(&l.sw); err == nil {
		err = f.Sync()
	}
	l.sw.dst = nil
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
	l.snapBytes.Add(l.sw.n)
	return nil
}

// trimTo drops the log prefix [0, cutOff) now covered by the snapshot
// chain: the tail is copied to a temp file, renamed over the log, and
// the live handle and offsets rebased. The caller holds snapMu, and only
// trimTo replaces f, so the durable bytes past cutOff — fsynced and never
// rewritten — are copied and fsynced with no lock held, while appends
// and Syncs go on. Only the bytes appended since are copied under
// syncMu, which keeps Sync off the old file until the new one is in
// place; mu is held just to swap the handle and offsets.
func (l *Log) trimTo(cutOff int64) error {
	tmp := filepath.Join(l.dir, walTmpName)
	nf, err := l.opts.FS.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: trim: %w", err)
	}
	if l.copyBuf == nil {
		l.copyBuf = make([]byte, writeBufSize)
	}
	// The copies leave nf's offset at its end, where the next append goes.
	copied := l.durableOff.Load()
	if err = copyRange(nf, l.f, cutOff, copied, l.copyBuf); err == nil {
		err = nf.Sync()
	}
	if err != nil {
		nf.Close()
		return fmt.Errorf("wal: trim: %w", err)
	}

	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	start := time.Now()
	defer func() { l.trimLockedNs.Add(int64(time.Since(start))) }()
	written, _, err := l.flush()
	if err != nil {
		nf.Close()
		return err
	}
	if err = copyRange(nf, l.f, copied, written, l.copyBuf); err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = l.opts.FS.Rename(tmp, filepath.Join(l.dir, walName))
	}
	if err != nil {
		nf.Close()
		return fmt.Errorf("wal: trim: %w", err)
	}
	l.mu.Lock()
	old := l.f
	l.f = nf
	l.written -= cutOff
	l.durableOff.Add(-cutOff)
	l.mu.Unlock()
	old.Close()
	if err := l.opts.FS.SyncDir(l.dir); err != nil {
		// A crash could bring the old log back, and it lacks every record
		// appended from here on: acknowledge none of them.
		err = fmt.Errorf("wal: trim: %w", err)
		l.mu.Lock()
		l.err = err
		l.mu.Unlock()
		return err
	}
	l.trims.Add(1)
	return nil
}

// copyRange copies bytes [from, to) of src to dst through buf.
func copyRange(dst io.Writer, src io.ReaderAt, from, to int64, buf []byte) error {
	for from < to {
		n := int(min(int64(len(buf)), to-from))
		if _, err := src.ReadAt(buf[:n], from); err != nil {
			return err
		}
		if _, err := dst.Write(buf[:n]); err != nil {
			return err
		}
		from += int64(n)
	}
	return nil
}
