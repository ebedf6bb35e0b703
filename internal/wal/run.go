package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// A chain file and a log window parse into the same thing, a run: per
// key, effects in chain order, as events sorted by key that point into
// the image they came from. One k-way merge over runs (the k-LSM's sorted
// runs, Wimmer et al.) folds them with no map, no per-key object and no
// copy of a value: per key it only counts, because under FIFO the
// survivors are the key's newest instances.

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
// file's watermarks, and the merge's cursor, the head key's ev[lo:hi].
type run struct {
	name      string // the file, or walName for a log's events
	img       []byte
	ev        []event
	prev, lsn uint64 // a delta's watermarks (a base has only lsn)
	lo, hi    int
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

// newRun parses a chain file body of the kind its magic names into a
// run: a base entry becomes its instances, a delta entry its adds and
// then its drops. Every malformed body is ErrCorrupt: a truncated header,
// a count its bytes cannot hold, an entry that overruns the body,
// trailing bytes, a base count <= 0 or over maxLive, drops < 0 or more
// than any chain holds, a delta whose watermark does not rise, a key
// twice. A file not in key order (every file written before entries were
// sorted) is sorted here.
func newRun(name string, magic uint64, body []byte) (*run, error) {
	r, hdr, entry := &run{name: name, img: body}, 16, 16
	if magic == deltaMagic {
		hdr, entry = 24, 20
	}
	if len(body) < hdr {
		return nil, fmt.Errorf("%w: %s header truncated", ErrCorrupt, name)
	}
	r.prev, r.lsn = binary.LittleEndian.Uint64(body), binary.LittleEndian.Uint64(body[hdr-16:])
	if magic == deltaMagic && r.lsn <= r.prev {
		return nil, fmt.Errorf("%w: %s watermark %d not above previous %d", ErrCorrupt, name, r.lsn, r.prev)
	}
	// Bound the count by division: a wrapped entry*n once passed a
	// multiplied check and indexed past the body.
	n := binary.LittleEndian.Uint64(body[hdr-8:])
	if n > uint64(len(body)-hdr)/uint64(entry) {
		return nil, fmt.Errorf("%w: %s count %d implausible for %d body bytes", ErrCorrupt, name, n, len(body))
	}
	r.ev = make([]event, 0, n)
	sorted, off := true, hdr
	for i := uint64(0); i < n; i++ {
		if len(body)-off < entry {
			return nil, fmt.Errorf("%w: %s key %d overruns body", ErrCorrupt, name, i)
		}
		k := binary.LittleEndian.Uint64(body[off:])
		c, drops := int64(binary.LittleEndian.Uint64(body[off+8:])), int64(0)
		if magic == deltaMagic {
			c, drops = int64(binary.LittleEndian.Uint32(body[off+16:])), c
			if drops < 0 || drops > maxLive+math.MaxUint32 {
				return nil, fmt.Errorf("%w: %s key %d has drops %d", ErrCorrupt, name, k, drops)
			}
		} else if c <= 0 || c > maxLive {
			return nil, fmt.Errorf("%w: %s key %d has count %d", ErrCorrupt, name, k, c)
		}
		off += entry
		if last := len(r.ev) - 1; i > 0 && k <= r.ev[last].key {
			if k == r.ev[last].key {
				return nil, fmt.Errorf("%w: %s key %d duplicated", ErrCorrupt, name, k)
			}
			sorted = false
		}
		if magic == snapMagic {
			r.ev = append(r.ev, event{k, uint64(c)<<2 | evKeyOnly})
			continue
		}
		// Every payload entry takes at least its 4-byte vlen.
		if c > int64(len(body)-off)/4 {
			return nil, fmt.Errorf("%w: %s key %d claims %d payloads in %d body bytes", ErrCorrupt, name, k, c, len(body)-off)
		}
		for j := int64(0); j < c; j++ {
			end := off + 4
			if end <= len(body) && binary.LittleEndian.Uint32(body[off:]) != noPayload {
				end += int(binary.LittleEndian.Uint32(body[off:]))
			}
			if end > len(body) {
				return nil, fmt.Errorf("%w: %s key %d payload %d overruns body", ErrCorrupt, name, k, j)
			}
			r.ev = append(r.ev, event{k, uint64(off)<<2 | evPayload})
			off = end
		}
		if drops > 0 || c == 0 {
			r.ev = append(r.ev, event{k, uint64(drops)<<2 | evDrop})
		}
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %s has %d trailing body bytes", ErrCorrupt, name, len(body)-off)
	}
	if !sorted {
		r.ev, _ = sortEvents(r.ev, nil)
		keys := uint64(0)
		for r.advance(); r.lo < len(r.ev); r.advance() {
			keys++
		}
		if keys != n {
			return nil, fmt.Errorf("%w: %s has a key twice", ErrCorrupt, name)
		}
	}
	return r, nil
}

// advance moves r's head to its next key's events; r is done when lo
// reaches the end.
func (r *run) advance() {
	if r.lo = r.hi; r.lo < len(r.ev) {
		k := r.ev[r.lo].key
		for r.hi = r.lo + 1; r.hi < len(r.ev) && r.ev[r.hi].key == k; r.hi++ {
		}
	}
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

// merge walks the keys of runs in ascending order and calls visit with
// each key and the runs that hold it, in chain order, their heads at it.
func merge(runs []*run, visit func(k uint64, at []*run) error) error {
	for _, r := range runs {
		r.lo, r.hi = 0, 0
		r.advance()
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
			r.advance()
		}
	}
}

// fold merges runs and folds each key's events in chain order: it
// counts the key's live and dead instances and the chain's share (those
// live before the log's run), calls key with them, then emit for the
// survivors, the instances the runs insert past the dead, n at a time
// with payload v (nil for payload-less ones, the only ones with n > 1).
// Drops beyond what is live or an extract with nothing live is
// ErrCorrupt.
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
// chain's share, whether a payload survives, and the v2 base's bytes.
type foldSize struct {
	keys            int
	live, chainLive int64
	valued          bool
	v2Bytes         int64
}

// sizeFold folds runs once, counting what a fill would emit, to size the
// output exactly. A fold over more than maxLive instances is ErrCorrupt.
func sizeFold(runs []*run) (fs foldSize, err error) {
	err = fold(runs, func(_ uint64, live, chainLive int64) error {
		fs.chainLive += chainLive
		if live > 0 {
			fs.keys, fs.live, fs.v2Bytes = fs.keys+1, fs.live+live, fs.v2Bytes+16
		}
		// fs.live <= maxLive before the add, and a key's live instances are
		// at most a base's count (<= maxLive) plus what deltas and a log
		// image can add, so the sum cannot wrap before the check catches it.
		if fs.live > maxLive {
			return fmt.Errorf("%w: fold claims more than %d live instances", ErrCorrupt, uint64(maxLive))
		}
		return nil
	}, func(v []byte, n int64) {
		fs.v2Bytes += n * int64(4+len(v))
		fs.valued = fs.valued || v != nil
	})
	return fs, err
}
