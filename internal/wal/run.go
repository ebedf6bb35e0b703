package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync/atomic"
)

// A chain file and a log window parse into the same thing, a run: per
// key, effects in chain order, as events sorted by key that point into
// the image they came from. One k-way merge over runs (the k-LSM's sorted
// runs, Wimmer et al.) folds them with no map and no per-key object: per
// key it only counts, because under FIFO the survivors are the key's
// newest instances.
//
// A log window is a run held in memory. A chain file is streamed: the run
// holds the events of the entries one buffer of the file holds, pointing
// into that buffer, so a fold over any chain holds O(runs × readBufSize)
// of it (an entry larger than the buffer grows it). A file written before
// entries were sorted cannot be streamed in key order and is loaded whole
// and sorted instead (run.load).

// An event is one effect on key. ref holds a kind in its low 2 bits and
// above them a count or an offset into the run's image.
type event struct {
	key, ref uint64
}

const (
	evDrop    = iota // a delta's drops: count extracts, oldest first
	evKeyOnly        // count payload-less inserts
	evPayload        // one insert; its payload entry (vlen + bytes) is at offset
	evExtract        // one logged extract; its record's frame is at offset
)

// run is one input of a fold: its events, the image they point into, a
// file's watermarks, and the merge's cursor, the head key's ev[lo:hi]. A
// streamed run's ev holds one buffer's events and img is that buffer.
type run struct {
	name      string // the file, or walName for a log's events
	img       []byte
	ev        []event
	prev, lsn uint64 // a delta's watermarks (a base has only lsn)
	lo, hi    int
	src       *chainReader // nil once the run is in memory
}

// scanLog walks the records of a log image and appends to ev one event
// per key of every record above sinceLSN (records at or below it are
// covered by the snapshot chain), in log order. It returns the last LSN
// and the number of records walked, and where a torn tail starts (-1 if
// the image ends cleanly). A CRC-valid corrupt frame stops the walk.
func scanLog(img []byte, sinceLSN uint64, ev []event) (_ []event, lastLSN, records uint64, torn int64, err error) {
	d := NewDecoder(img)
	for {
		at := d.Offset()
		rec, err := d.Next()
		switch {
		case errors.Is(err, io.EOF):
			return ev, lastLSN, records, -1, nil
		case errors.Is(err, ErrTornTail):
			return ev, lastLSN, records, d.Offset(), nil
		case err != nil:
			return ev, lastLSN, records, -1, err
		}
		records, lastLSN = records+1, rec.LSN
		if rec.LSN <= sinceLSN {
			continue
		}
		for i, k := range rec.Keys {
			ref := uint64(at)<<2 | evExtract
			switch {
			case rec.Kind == recExtract || rec.Kind == recExtractBatch:
			case rec.Vals == nil:
				ref = 1<<2 | evKeyOnly
			default:
				// A value is a slice of img up to img's end, so the capacities
				// differ by its offset; its vlen is the 4 bytes before it.
				ref = uint64(cap(img)-cap(rec.Vals[i])-4)<<2 | evPayload
			}
			ev = append(ev, event{k, ref})
		}
	}
}

// sortEvents sorts ev stably by key: an LSD radix sort with one pass per
// key byte that differs between events, scattering between ev and tmp.
// It returns the sorted events and the other buffer, for reuse.
func sortEvents(ev, tmp []event) ([]event, []event) {
	if len(ev) < 2 {
		return ev, tmp
	}
	var counts [8][256]int
	for _, e := range ev {
		for d := range counts {
			counts[d][byte(e.key>>(8*d))]++
		}
	}
	if cap(tmp) < len(ev) {
		tmp = make([]event, len(ev))
	}
	tmp = tmp[:len(ev)]
	for d := range counts {
		c := &counts[d]
		if c[byte(ev[0].key>>(8*d))] == len(ev) {
			continue // every event has this byte
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, e := range ev {
			b := byte(e.key >> (8 * d))
			tmp[c[b]] = e
			c[b]++
		}
		ev, tmp = tmp, ev
	}
	return ev, tmp
}

// readBufSize is the buffer a streamed chain file is read through.
const readBufSize = 64 << 10

// chainReader streams the body of one chain file through a buffer,
// keeping a running CRC-32C of it and checking it against the CRC that
// follows the body once the last entry is parsed. Entries are parsed in
// place, a buffer at a time: the run's events point into buf until the
// merge has moved past all of them. An entry larger than the buffer
// grows it. Every malformed body is ErrCorrupt — a truncated header, a
// count its bytes cannot hold, an entry that overruns the body, trailing
// bytes, a base count <= 0 or over maxLive, drops < 0 or more than any
// chain holds, a delta whose watermark does not rise, a key twice.
type chainReader struct {
	rd    io.ReadSeeker // the file: magic, body, CRC
	size  int64         // body bytes
	magic uint64

	buf  []byte // buf[r:w] is read and not yet parsed
	r, w int
	left int64 // body bytes not yet read into buf
	crc  uint32

	hdr, entry int    // header and fixed entry size of the file's kind
	n, seen    uint64 // entries the header claims, entries parsed
	last       uint64 // key of the last entry parsed
	done       bool   // every entry parsed and the CRC checked
	whole      bool   // loading the whole file: entries may be out of key order
	unsorted   bool   // streaming met a key out of order
}

// errUnsorted is a streamed run meeting a key below the one before it:
// the file was written before entries were sorted, and must be loaded
// whole (run.load).
var errUnsorted = errors.New("wal: chain file not in key order")

// open makes r the chain file rd, whose magic names its kind and whose
// body is size bytes, streamed and positioned before its first key. It
// keeps the read buffer and event slice r had, unless r was loaded whole.
func (r *run) open(name string, rd io.ReadSeeker, size int64, magic uint64) error {
	var buf []byte
	if r.src != nil {
		buf = r.src.buf
	} else {
		buf, r.ev = make([]byte, readBufSize), nil
	}
	c := &chainReader{rd: rd, size: size, magic: magic, buf: buf, hdr: 16, entry: 16}
	if magic == deltaMagic {
		c.hdr, c.entry = 24, 20
	}
	r.name, r.img, r.src = name, nil, c
	return r.rewind()
}

// rewind positions a run before its first key, so that advance moves to
// it: a streamed run re-reads its file from the header, an in-memory one
// resets its cursor.
func (r *run) rewind() error {
	c := r.src
	r.lo, r.hi = 0, 0
	if c == nil {
		return nil
	}
	r.ev = r.ev[:0]
	if _, err := c.rd.Seek(8, io.SeekStart); err != nil { // past the magic
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	c.r, c.w, c.left, c.crc, c.seen, c.done = 0, 0, c.size, 0, 0, false
	if err := c.refill(); err != nil {
		return err
	}
	if c.w < c.hdr {
		return fmt.Errorf("%w: %s header truncated", ErrCorrupt, r.name)
	}
	b := c.buf[:c.hdr]
	c.r = c.hdr
	r.prev, r.lsn = binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[c.hdr-16:])
	if c.magic == deltaMagic && r.lsn <= r.prev {
		return fmt.Errorf("%w: %s watermark %d not above previous %d", ErrCorrupt, r.name, r.lsn, r.prev)
	}
	// Bound the count by division: a wrapped entry*n once passed a
	// multiplied check and indexed past the body.
	c.n = binary.LittleEndian.Uint64(b[c.hdr-8:])
	if c.n > uint64(c.size-int64(c.hdr))/uint64(c.entry) {
		return fmt.Errorf("%w: %s count %d implausible for %d body bytes", ErrCorrupt, r.name, c.n, c.size)
	}
	return nil
}

// refill moves the unparsed bytes to the front of buf, doubling buf when
// they fill it, and reads as many more body bytes as fit.
func (c *chainReader) refill() error {
	if c.r == 0 && c.w == len(c.buf) && c.left > 0 {
		c.buf = append(c.buf, make([]byte, len(c.buf))...)
	}
	c.w = copy(c.buf, c.buf[c.r:c.w])
	c.r = 0
	m := int(min(c.left, int64(len(c.buf)-c.w)))
	if _, err := io.ReadFull(c.rd, c.buf[c.w:c.w+m]); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	c.crc = crc32.Update(c.crc, castagnoli, c.buf[c.w:c.w+m])
	c.w += m
	c.left -= int64(m)
	return nil
}

// skim reads the rest of the body unparsed and checks its CRC.
func (c *chainReader) skim(name string) error {
	for c.r = c.w; c.left > 0; c.r = c.w {
		if err := c.refill(); err != nil {
			return err
		}
	}
	return c.finish(name)
}

// finish checks, once every entry is parsed, that no body bytes trail
// them and that the body's CRC matches the one after it.
func (c *chainReader) finish(name string) error {
	c.done = true
	if n := c.left + int64(c.w-c.r); n != 0 {
		return fmt.Errorf("%w: %s has %d trailing body bytes", ErrCorrupt, name, n)
	}
	var sum [4]byte
	if _, err := io.ReadFull(c.rd, sum[:]); err != nil {
		return fmt.Errorf("%w: %s crc unreadable: %v", ErrCorrupt, name, err)
	}
	if c.crc != binary.LittleEndian.Uint32(sum[:]) {
		return fmt.Errorf("%w: snapshot file %s crc mismatch", ErrCorrupt, name)
	}
	return nil
}

// parse appends to r.ev the events of every entry wholly in buf[r:w], as
// offsets into buf, and stops before one that is not: a base entry
// becomes its instances, a delta entry its adds and then its drops.
func (r *run) parse() error {
	c, b := r.src, r.src.buf[:r.src.w]
	for c.seen < c.n && c.w-c.r >= c.entry {
		p := c.r
		k := binary.LittleEndian.Uint64(b[p:])
		n, drops := int64(binary.LittleEndian.Uint64(b[p+8:])), int64(0)
		if c.magic == deltaMagic {
			n, drops = int64(binary.LittleEndian.Uint32(b[p+16:])), n
			if drops < 0 || drops > maxLive+math.MaxUint32 {
				return fmt.Errorf("%w: %s key %d has drops %d", ErrCorrupt, r.name, k, drops)
			}
		} else if n <= 0 || n > maxLive {
			return fmt.Errorf("%w: %s key %d has count %d", ErrCorrupt, r.name, k, n)
		}
		if c.seen > 0 && k <= c.last {
			if k == c.last {
				return fmt.Errorf("%w: %s key %d duplicated", ErrCorrupt, r.name, k)
			}
			if !c.whole {
				c.unsorted = true
				return errUnsorted
			}
		}
		p += c.entry
		mark := len(r.ev)
		if c.magic == snapMagic {
			r.ev = append(r.ev, event{k, uint64(n)<<2 | evKeyOnly})
		} else {
			// Every payload entry takes at least its 4-byte vlen.
			if rest := c.left + int64(c.w-p); n > rest/4 {
				return fmt.Errorf("%w: %s key %d claims %d payloads in %d body bytes", ErrCorrupt, r.name, k, n, rest)
			}
			for j := int64(0); j < n && p >= 0; j++ {
				end := p + 4
				if end <= c.w {
					if vlen := binary.LittleEndian.Uint32(b[p:]); vlen != noPayload {
						end += int(vlen)
					}
				}
				if end > c.w {
					p = -1 // the entry goes on past what is buffered
					break
				}
				r.ev = append(r.ev, event{k, uint64(p)<<2 | evPayload})
				p = end
			}
			if p < 0 {
				r.ev = r.ev[:mark]
				return nil
			}
			if drops > 0 || n == 0 {
				r.ev = append(r.ev, event{k, uint64(drops)<<2 | evDrop})
			}
		}
		c.seen, c.last, c.r = c.seen+1, k, p
	}
	return nil
}

// nextBatch parses the next buffer of a streamed run's entries into
// r.ev; the batch holding the last entry also checks the file's end.
func (r *run) nextBatch() error {
	c := r.src
	r.ev, r.lo, r.hi = r.ev[:0], 0, 0
	for len(r.ev) == 0 && c.seen < c.n {
		if err := c.refill(); err != nil {
			return err
		}
		if err := r.parse(); err != nil {
			return err
		}
		if len(r.ev) == 0 && c.left == 0 {
			return fmt.Errorf("%w: %s key %d overruns body", ErrCorrupt, r.name, c.seen)
		}
	}
	r.img = c.buf
	if c.seen == c.n {
		return c.finish(r.name)
	}
	return nil
}

// load reads a streamed run whole into memory and sorts it by key: the
// way to fold a file written before entries were sorted.
func (r *run) load() error {
	c := r.src
	c.whole, c.buf = true, make([]byte, max(c.size, 1))
	if err := r.rewind(); err != nil {
		return err
	}
	if err := r.nextBatch(); err != nil {
		return err
	}
	if c.seen < c.n {
		return fmt.Errorf("%w: %s key %d overruns body", ErrCorrupt, r.name, c.seen)
	}
	r.ev, _ = sortEvents(r.ev, nil)
	r.src = nil
	keys := uint64(0)
	for r.lo, r.hi = 0, 0; r.advance() == nil && r.lo < len(r.ev); {
		keys++
	}
	if keys != c.n {
		return fmt.Errorf("%w: %s has a key twice", ErrCorrupt, r.name)
	}
	return nil
}

// advance moves r's head to its next key's events; r is done when lo
// reaches the end of ev.
func (r *run) advance() error {
	if r.lo = r.hi; r.lo == len(r.ev) {
		if c := r.src; c == nil || c.done {
			return nil
		}
		if err := r.nextBatch(); err != nil {
			return err
		}
	}
	if r.lo < len(r.ev) {
		k := r.ev[r.lo].key
		for r.hi = r.lo + 1; r.hi < len(r.ev) && r.ev[r.hi].key == k; r.hi++ {
		}
	}
	return nil
}

// val is the payload of an evPayload event, nil for a payload-less one.
func (r *run) val(ref uint64) []byte {
	off := ref >> 2
	vlen := binary.LittleEndian.Uint32(r.img[off:])
	if vlen == noPayload {
		return nil
	}
	end := off + 4 + uint64(vlen)
	return r.img[off+4 : end : end]
}

// merges counts the merges begun, by which tests count the passes a
// rebase makes over its chain.
var merges atomic.Int64

// merge walks the keys of runs in ascending order and calls visit with
// each key and the runs that hold it, in chain order, their heads at it.
func merge(runs []*run, visit func(k uint64, at []*run) error) error {
	merges.Add(1)
	for _, r := range runs {
		if err := r.rewind(); err != nil {
			return err
		}
		if err := r.advance(); err != nil {
			return err
		}
	}
	at := make([]*run, 0, len(runs))
	for {
		var k uint64
		at = at[:0]
		for _, r := range runs {
			switch {
			case r.lo == len(r.ev):
			case len(at) == 0 || r.ev[r.lo].key < k:
				k, at = r.ev[r.lo].key, append(at[:0], r)
			case r.ev[r.lo].key == k:
				at = append(at, r)
			}
		}
		if len(at) == 0 {
			return nil
		}
		if err := visit(k, at); err != nil {
			return err
		}
		for _, r := range at {
			if err := r.advance(); err != nil {
				return err
			}
		}
	}
}

// fold merges runs and folds each key's events in chain order: it
// counts the key's live and dead instances and the chain's share (those
// live before the log's run), calls key with them, then emit for the
// survivors, the instances the runs insert past the dead, n at a time
// with payload v (nil for payload-less ones, the only ones with n > 1).
// v is valid until emit returns. Drops beyond what is live or an extract
// with nothing live is ErrCorrupt.
func fold(runs []*run, key func(k uint64, live, chainLive int64) error, emit func(v []byte, n int64)) error {
	return merge(runs, func(k uint64, at []*run) error {
		var live, dead, chainLive int64
		for _, r := range at {
			if r.name == walName {
				chainLive = live
			}
			for _, e := range r.ev[r.lo:r.hi] {
				switch n := int64(e.ref >> 2); e.ref & 3 {
				case evKeyOnly:
					live += n
				case evPayload:
					live++
				case evDrop:
					if n > live {
						return fmt.Errorf("%w: %s drops %d instances of key %d, chain holds %d", ErrCorrupt, r.name, n, k, live)
					}
					live, dead = live-n, dead+n
				case evExtract:
					if live == 0 {
						lsn := binary.LittleEndian.Uint64(r.img[n+headerSize+1:])
						return fmt.Errorf("%w: extract of key %d at LSN %d without a durable insert", ErrCorrupt, k, lsn)
					}
					live, dead = live-1, dead+1
				}
			}
		}
		if at[len(at)-1].name != walName {
			chainLive = live
		}
		if err := key(k, live, chainLive); err != nil {
			return err
		}
		for _, r := range at {
			for _, e := range r.ev[r.lo:r.hi] {
				switch n := int64(e.ref >> 2); e.ref & 3 {
				case evKeyOnly:
					d := min(n, dead)
					if dead -= d; n > d {
						emit(nil, n-d)
					}
				case evPayload:
					if dead > 0 {
						dead--
						continue
					}
					emit(r.val(e.ref), 1)
				}
			}
		}
		return nil
	})
}

// foldSize is what sizeFold found: surviving keys and instances, the
// chain's share, whether a payload survives, and the survivors' payload
// bytes.
type foldSize struct {
	keys            int
	live, chainLive int64
	valued          bool
	payBytes        int64
}

// sizeFold folds runs once, counting what a fill would emit, so the fill
// can write its header first and size its output exactly. It is
// Recover's first pass over a chain, and a rebase's when the one-pass
// base's format guess fails: it checks every file whole, CRC included,
// and loads any streamed run found out of key order. A fold over more
// than maxLive instances is ErrCorrupt.
func sizeFold(runs []*run) (fs foldSize, err error) {
	for {
		fs = foldSize{}
		err = fold(runs, func(_ uint64, live, chainLive int64) error {
			fs.chainLive += chainLive
			if live > 0 {
				fs.keys, fs.live = fs.keys+1, fs.live+live
			}
			// fs.live <= maxLive before the add, and a key's live instances
			// are at most a base's count (<= maxLive) plus what deltas and a
			// log image can add, so the sum cannot wrap before the check
			// catches it.
			if fs.live > maxLive {
				return fmt.Errorf("%w: fold claims more than %d live instances", ErrCorrupt, uint64(maxLive))
			}
			return nil
		}, func(v []byte, n int64) {
			fs.payBytes += n * int64(len(v))
			fs.valued = fs.valued || v != nil
		})
		if !errors.Is(err, errUnsorted) {
			return fs, err
		}
		if err := loadUnsorted(runs); err != nil {
			return fs, err
		}
	}
}

// loadUnsorted loads whole every streamed run a fold found out of key
// order, so that the fold can start again.
func loadUnsorted(runs []*run) error {
	for _, r := range runs {
		if r.src != nil && r.src.unsorted {
			if err := r.load(); err != nil {
				return err
			}
		}
	}
	return nil
}
