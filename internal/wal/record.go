// Package wal is the durability layer the sharded front-end opens for
// core.Config.Durability: a write-ahead log of queue operations with
// group-committed fsync, an online snapshot chain (incremental deltas
// with periodic full rebases) that compacts the log without quiescing
// the queue, and crash recovery that rebuilds the live multiset from
// snapshot chain + tail replay.
//
// # What is logged
//
// The queue's durable state is the live multiset of elements: an element
// is durably "in the queue" when its insert record is on disk and no
// extract record for it is. Insert records optionally carry the
// element's payload value, serialized through a Codec (format v2, kinds
// recInsertV/recInsertBatchV); with a nil codec the log keeps the
// original key-only bit layout (format v1) and recovery restores zero
// values. Extract records are always key-only — the extractor already
// holds the value, so logging it again would only amplify writes. Both
// formats coexist in one log: a v1 log continued by a codec-carrying
// queue simply gains v2 records after its v1 prefix, and recovery reads
// either transparently.
//
// # Two appends, one read at startup
//
// Every write to the log is batch-shaped: Log.AppendInserts(keys, vals)
// and Log.AppendExtracts(keys), one call per queue operation or batch.
// The Log picks each record's kind from its input — one key gives
// recInsert, recExtract or recInsertV, several keys the batch kinds, and
// non-nil vals the v2 kinds — and cuts a batch too large for one frame
// into several records. Open is Recover plus the repairs an appending
// log needs (torn tail cut, temps dropped): it returns the recovered
// State, so a restart reads the directory once.
//
// # Record framing
//
// Every record is framed as
//
//	length  uint32 LE   payload length in bytes
//	crc     uint32 LE   CRC-32C (Castagnoli) of the payload
//	payload:
//	  kind  byte        one of the rec* kinds below
//	  lsn   uint64 LE   monotonically increasing log sequence number
//	  body  ...         kind-specific, see below
//
// v1 bodies (key-only):
//
//	recInsert | recExtract:           key uint64 LE
//	recInsertBatch | recExtractBatch: count uint32 LE + count × uint64 LE
//
// v2 bodies (valued inserts; the kind byte is the version tag):
//
//	recInsertV:      key uint64 LE + vlen uint32 LE + vlen bytes
//	recInsertBatchV: count uint32 LE + count × (key + vlen + bytes)
//
// A decoder walking a file stops at the first frame that does not parse —
// short header, implausible length, short payload, or CRC mismatch — and
// classifies it as a torn tail (ErrTornTail): with a single appended file
// the on-disk image after a crash is a prefix of what was written, so the
// first bad frame marks where the crash cut the stream. A torn value
// payload is caught the same way — the frame CRC covers the payload
// bytes, so a half-written value can only ever truncate the log, never
// corrupt it. A frame whose CRC is valid but whose contents are nonsense
// (unknown kind, non-monotonic LSN, counts disagreeing with the length)
// is corruption, not a torn tail, and decoding fails hard (ErrCorrupt)
// rather than silently dropping records.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record kinds. The zero value is invalid so a zeroed frame can never
// masquerade as a record. Kinds 1-4 are format v1 (key-only); kinds 5-6
// are format v2 (inserts carrying per-key payload bytes).
const (
	recInsert       = 1 // one inserted key
	recExtract      = 2 // one extracted key
	recInsertBatch  = 3 // n inserted keys
	recExtractBatch = 4 // n extracted keys
	recInsertV      = 5 // one inserted key + payload value
	recInsertBatchV = 6 // n inserted keys + payload values
)

const (
	headerSize = 8 // length(4) + crc(4)

	// minPayload is kind(1) + lsn(8) + key(8): the smallest valid record.
	minPayload = 17

	// maxPayload bounds a single record so a garbage length field cannot
	// make the decoder reserve gigabytes: 1 MiB holds a batch of ~128k
	// key-only entries, far beyond any batch the queue issues.
	maxPayload = 1 << 20

	// maxBatchKeys is the largest key count a batch record may carry,
	// consistent with maxPayload.
	maxBatchKeys = (maxPayload - 13) / 8
)

// MaxValueLen is the largest encoded payload value a single insert
// record can carry: one valued member (key + vlen + bytes) plus the
// record envelope must fit under maxPayload. Append paths latch an error
// (surfaced by Sync, so the operation is never acked) for anything
// larger rather than writing a frame recovery would reject.
const MaxValueLen = maxPayload - 32

// castagnoli is the CRC-32C table (the polynomial used by iSCSI and most
// modern storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a frame that passed the CRC but is semantically
// invalid — format drift or in-place corruption, which recovery must
// surface rather than repair by truncation.
var ErrCorrupt = errors.New("wal: corrupt record")

// TornTailError reports that the byte stream ends in a frame that does
// not parse: the crash cut the stream at or after Offset. Everything
// before Offset decoded cleanly; recovery truncates the file there.
type TornTailError struct {
	// Offset is the byte offset of the first undecodable frame.
	Offset int64
	// Reason describes what failed (short header, bad CRC, ...).
	Reason string
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("wal: torn tail at byte %d (%s)", e.Offset, e.Reason)
}

// ErrTornTail is the sentinel all TornTailError values wrap, for
// errors.Is classification.
var ErrTornTail = errors.New("wal: torn tail")

func (e *TornTailError) Unwrap() error { return ErrTornTail }

// Record is one decoded log record. Keys and Vals alias the Decoder's
// scratch and the decoded image and are only valid until the next call
// to Next. Vals is nil for v1 (key-only) records; for v2 records it is
// aligned with Keys and every entry is non-nil (possibly empty): a slice
// of the image running to its end.
type Record struct {
	LSN  uint64
	Kind byte
	Keys []uint64
	Vals [][]byte
}

// recordKind picks the kind of a record carrying n keys: the single-key
// kinds for one key, the batch kinds otherwise, and the v2 kinds when
// the inserts carry payloads (vals non-nil).
func recordKind(insert bool, n int, valued bool) byte {
	switch {
	case !insert && n == 1:
		return recExtract
	case !insert:
		return recExtractBatch
	case valued && n == 1:
		return recInsertV
	case valued:
		return recInsertBatchV
	case n == 1:
		return recInsert
	}
	return recInsertBatch
}

// appendRecord frames one record of the given kind into buf and returns
// the extended slice: the batch kinds get a count, and the valued kinds
// a length-prefixed payload per key (vals aligned with keys; a nil entry
// is written as an empty payload). It is the one encoder behind the
// Log's appends; writing straight into the Log's pending buffer keeps
// appends allocation-free once the buffer has grown to its steady-state
// size. The caller keeps the record under maxPayload (see chunkLen).
func appendRecord(buf []byte, kind byte, lsn uint64, keys []uint64, vals [][]byte) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, headerSize)...)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	if kind == recInsertBatch || kind == recExtractBatch || kind == recInsertBatchV {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	}
	for i, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, k)
		if vals != nil {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vals[i])))
			buf = append(buf, vals[i]...)
		}
	}
	payload := buf[start+headerSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// chunkLen is how many leading members of keys/vals fit one record under
// maxPayload, on top of the 13-byte batch envelope: a key-only member
// counts 8 bytes, so maxBatchKeys of them fit, and a valued one counts
// 12 + its payload. A chunk always holds at least one member (values are
// bounded by MaxValueLen).
func chunkLen(keys []uint64, vals [][]byte) int {
	if vals == nil {
		return min(len(keys), maxBatchKeys)
	}
	size, c := 13, 0
	for c < len(keys) {
		m := 12 + len(vals[c])
		if c > 0 && size+m > maxPayload {
			break
		}
		size += m
		c++
	}
	return c
}

// Decoder walks a byte image of a WAL file. It never panics on arbitrary
// input (fuzzed: FuzzWALDecode) and distinguishes three stream endings:
// io.EOF (clean end on a frame boundary), ErrTornTail (trailing bytes
// that do not parse — the normal crash signature), and ErrCorrupt (a
// CRC-valid frame with invalid contents).
type Decoder struct {
	b       []byte
	off     int64
	lastLSN uint64
	keys    []uint64
	vals    [][]byte
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Offset returns the byte offset of the next undecoded frame — after a
// torn-tail error, the offset recovery should truncate the file to.
func (d *Decoder) Offset() int64 { return d.off }

func (d *Decoder) torn(reason string) (Record, error) {
	return Record{}, &TornTailError{Offset: d.off, Reason: reason}
}

// Next decodes the next record. It returns io.EOF when the stream ends
// exactly on a frame boundary.
func (d *Decoder) Next() (Record, error) {
	rest := d.b[d.off:]
	if len(rest) == 0 {
		return Record{}, io.EOF
	}
	if len(rest) < headerSize {
		return d.torn("short header")
	}
	length := binary.LittleEndian.Uint32(rest)
	if length < minPayload || length > maxPayload {
		return d.torn(fmt.Sprintf("implausible payload length %d", length))
	}
	if len(rest) < headerSize+int(length) {
		return d.torn("short payload")
	}
	payload := rest[headerSize : headerSize+int(length)]
	if crc := crc32.Checksum(payload, castagnoli); crc != binary.LittleEndian.Uint32(rest[4:]) {
		return d.torn("crc mismatch")
	}

	// The frame is intact; anything wrong from here on is corruption.
	rec := Record{Kind: payload[0], LSN: binary.LittleEndian.Uint64(payload[1:])}
	if rec.LSN <= d.lastLSN {
		return Record{}, fmt.Errorf("%w: LSN %d at byte %d not greater than previous %d", ErrCorrupt, rec.LSN, d.off, d.lastLSN)
	}
	body := payload[9:]
	switch rec.Kind {
	case recInsert, recExtract:
		if len(body) != 8 {
			return Record{}, fmt.Errorf("%w: single-key record with %d body bytes", ErrCorrupt, len(body))
		}
		d.keys = append(d.keys[:0], binary.LittleEndian.Uint64(body))
	case recInsertBatch, recExtractBatch:
		if len(body) < 4 {
			return Record{}, fmt.Errorf("%w: batch record with %d body bytes", ErrCorrupt, len(body))
		}
		n := binary.LittleEndian.Uint32(body)
		if n == 0 || n > maxBatchKeys || len(body) != 4+8*int(n) {
			return Record{}, fmt.Errorf("%w: batch record count %d disagrees with %d body bytes", ErrCorrupt, n, len(body))
		}
		d.keys = d.keys[:0]
		for i := 0; i < int(n); i++ {
			d.keys = append(d.keys, binary.LittleEndian.Uint64(body[4+8*i:]))
		}
	case recInsertV:
		if len(body) < 12 {
			return Record{}, fmt.Errorf("%w: valued record with %d body bytes", ErrCorrupt, len(body))
		}
		vlen := binary.LittleEndian.Uint32(body[8:])
		if int(vlen) != len(body)-12 {
			return Record{}, fmt.Errorf("%w: valued record vlen %d disagrees with %d body bytes", ErrCorrupt, vlen, len(body))
		}
		d.keys = append(d.keys[:0], binary.LittleEndian.Uint64(body))
		d.vals = append(d.vals[:0], body[12:])
		rec.Vals = d.vals
	case recInsertBatchV:
		if len(body) < 4 {
			return Record{}, fmt.Errorf("%w: valued batch record with %d body bytes", ErrCorrupt, len(body))
		}
		n := binary.LittleEndian.Uint32(body)
		if n == 0 || n > maxBatchKeys {
			return Record{}, fmt.Errorf("%w: valued batch record count %d implausible", ErrCorrupt, n)
		}
		d.keys, d.vals = d.keys[:0], d.vals[:0]
		off := 4
		for i := 0; i < int(n); i++ {
			if len(body)-off < 12 {
				return Record{}, fmt.Errorf("%w: valued batch member %d overruns %d body bytes", ErrCorrupt, i, len(body))
			}
			k := binary.LittleEndian.Uint64(body[off:])
			vlen := int(binary.LittleEndian.Uint32(body[off+8:]))
			if vlen > len(body)-off-12 {
				return Record{}, fmt.Errorf("%w: valued batch member %d vlen %d overruns %d body bytes", ErrCorrupt, i, vlen, len(body))
			}
			d.keys = append(d.keys, k)
			d.vals = append(d.vals, body[off+12:off+12+vlen])
			off += 12 + vlen
		}
		if off != len(body) {
			return Record{}, fmt.Errorf("%w: valued batch record has %d trailing body bytes", ErrCorrupt, len(body)-off)
		}
		rec.Vals = d.vals
	default:
		return Record{}, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, rec.Kind)
	}
	rec.Keys = d.keys
	d.lastLSN = rec.LSN
	d.off += int64(headerSize + int(length))
	return rec, nil
}
