// Package wire defines the zmsqd network protocol: a compact
// length-prefixed binary framing over TCP, CRC-checked exactly like the
// internal/wal record frames, carrying per-tenant queue operations
// (Insert, InsertBatch, ExtractMax, ExtractBatch, Len, Snapshot) and
// their responses.
//
// # Frame layout
//
// Every message — request or response — travels in one frame:
//
//	length  uint32 LE   payload length in bytes
//	crc     uint32 LE   CRC-32C (Castagnoli) of the payload
//	payload bytes       request or response body (direction decides which)
//
// A request payload is
//
//	op      byte        OpInsert | OpInsertBatch | OpExtractMax |
//	                    OpExtractBatch | OpLen | OpSnapshot
//	id      uint32 LE   caller-chosen correlation id, echoed in the response
//	tlen    byte        tenant name length (1..MaxTenantLen)
//	tenant  tlen bytes  tenant name
//	body    ...         op-specific (see Request)
//
// and a response payload is
//
//	status  byte        StatusOK | StatusEmpty | StatusClosed |
//	                    StatusOverloaded | StatusBadRequest | StatusBadTenant
//	id      uint32 LE   the request's correlation id
//	op      byte        the request's op, echoed for dispatch convenience
//	body    ...         status/op-specific (see Response)
//
// Like the WAL decoder, a parser walking a byte stream classifies the
// first frame that does not parse — short header, implausible length,
// short payload, CRC mismatch — as a torn tail (ErrTorn): on a TCP stream
// that is the signature of a peer dying mid-write. A frame whose CRC is
// valid but whose payload violates the grammar is a protocol error
// (ErrProto), which the server answers with StatusBadRequest and the
// client treats as fatal. Neither parser ever panics on arbitrary input
// (fuzzed: FuzzFrameDecode).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Request ops. The zero value is invalid so a zeroed frame can never
// masquerade as a request.
//
// Insert ops and extract responses optionally carry value payloads —
// opaque bytes stored with the key and returned on extraction. The
// framing distinguishes key-only from valued bodies by exact length (a
// valued member costs 4 extra length bytes, so the two grammars never
// collide); a key-only frame is byte-identical to the pre-payload
// protocol, keeping old clients and servers interoperable for key-only
// traffic.
const (
	// OpInsert inserts one key; body = key uint64 LE, optionally followed
	// by a value payload: vlen uint32 LE + vlen bytes.
	OpInsert byte = 1
	// OpInsertBatch inserts a batch; body = count uint32 LE + count keys,
	// or the valued form: count uint32 LE + count × (key uint64 LE +
	// vlen uint32 LE + vlen bytes).
	OpInsertBatch byte = 2
	// OpExtractMax extracts one high-priority key; empty body.
	OpExtractMax byte = 3
	// OpExtractBatch extracts up to N keys; body = n uint32 LE.
	OpExtractBatch byte = 4
	// OpLen reports the tenant queue's length; empty body.
	OpLen byte = 5
	// OpSnapshot fetches the server's stats snapshot as JSON; empty body.
	OpSnapshot byte = 6
)

// Response statuses.
const (
	// StatusOK carries the op's result (see Response).
	StatusOK byte = 1
	// StatusEmpty reports an extraction from an observed-empty queue.
	StatusEmpty byte = 2
	// StatusClosed reports the server is draining; retry against a new
	// instance.
	StatusClosed byte = 3
	// StatusOverloaded reports admission control rejected the request;
	// body = advisory retry-after in milliseconds, uint32 LE.
	StatusOverloaded byte = 4
	// StatusBadRequest reports an ungrammatical request; body = message.
	StatusBadRequest byte = 5
	// StatusBadTenant reports an unknown tenant name; body = message.
	StatusBadTenant byte = 6
)

const (
	// HeaderSize is the fixed frame header: length(4) + crc(4).
	HeaderSize = 8

	// reqFixed is op(1) + id(4) + tlen(1): the request preamble before the
	// tenant name.
	reqFixed = 6

	// respFixed is status(1) + id(4) + op(1).
	respFixed = 6

	// MaxTenantLen bounds tenant names; one byte encodes the length.
	MaxTenantLen = 64

	// MaxPayload bounds one frame's payload so a garbage length field
	// cannot make a reader reserve gigabytes — the same ceiling as the
	// WAL's record frames.
	MaxPayload = 1 << 20

	// MaxBatchKeys is the largest key count an insert/extract batch may
	// carry, consistent with MaxPayload (preamble + max tenant + count).
	MaxBatchKeys = (MaxPayload - reqFixed - MaxTenantLen - 4) / 8

	// MaxValueLen bounds one element's value payload. It leaves headroom
	// under MaxPayload for the largest preamble plus the key and length
	// fields, and stays below the WAL's own per-record value bound so any
	// value the wire accepts is loggable verbatim.
	MaxValueLen = MaxPayload - 128
)

// castagnoli is the CRC-32C table (shared polynomial with internal/wal;
// hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn marks a byte stream that ends mid-frame: short header, short
// payload, implausible length, or CRC mismatch — the peer died (or the
// buffer was cut) mid-write. Stream readers close the connection.
var ErrTorn = errors.New("wire: torn frame")

// ErrProto marks a CRC-valid frame whose payload violates the protocol
// grammar — a buggy or hostile peer, never a torn write.
var ErrProto = errors.New("wire: protocol error")

// Request is one decoded client request.
type Request struct {
	// Op is the operation code (OpInsert..OpSnapshot).
	Op byte
	// ID is the correlation id echoed in the response. Clients choose it;
	// the server treats it as opaque.
	ID uint32
	// Tenant names the target queue.
	Tenant string
	// Key is the OpInsert key.
	Key uint64
	// Keys are the OpInsertBatch keys. Decoded Keys alias the decode
	// scratch and are only valid until the next decode on that parser.
	Keys []uint64
	// Payload is the OpInsert value payload; nil sends/received a
	// key-only frame. Decoded Payload aliases the frame buffer — copy it
	// before the next read if it must outlive the frame.
	Payload []byte
	// Payloads are the OpInsertBatch value payloads, aligned with Keys;
	// nil sends/received the key-only batch form. Decoded Payloads alias
	// the frame buffer.
	Payloads [][]byte
	// N is the OpExtractBatch key budget.
	N int
}

// Response is one decoded server response.
type Response struct {
	// Status is the outcome code (StatusOK..StatusBadTenant).
	Status byte
	// ID echoes the request's correlation id.
	ID uint32
	// Op echoes the request's op.
	Op byte
	// Value carries the OpExtractMax key or the OpLen length.
	Value uint64
	// Keys carries the OpExtractBatch results (may be empty only via
	// StatusEmpty). Decoded Keys alias the parser's scratch.
	Keys []uint64
	// Payload is the OpExtractMax value payload (nil on key-only
	// extractions). Decoded Payload aliases the frame buffer.
	Payload []byte
	// Payloads are the OpExtractBatch value payloads, aligned with Keys;
	// nil on a key-only batch. Decoded Payloads alias the frame buffer.
	Payloads [][]byte
	// RetryAfterMillis is the advisory backoff on StatusOverloaded.
	RetryAfterMillis uint32
	// Msg is the human-readable detail on StatusBadRequest/StatusBadTenant.
	Msg string
	// Blob is the OpSnapshot JSON document.
	Blob []byte
}

// beginFrame reserves a frame header in buf and returns (buf, start).
func beginFrame(buf []byte) ([]byte, int) {
	start := len(buf)
	return append(buf, make([]byte, HeaderSize)...), start
}

// endFrame patches the header reserved by beginFrame once the payload has
// been appended.
func endFrame(buf []byte, start int) []byte {
	payload := buf[start+HeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// AppendRequest frames r into buf and returns the extended slice. It
// rejects requests the wire grammar cannot carry (tenant name too long or
// empty, oversized batch) rather than emitting a frame the peer would
// refuse.
func AppendRequest(buf []byte, r Request) ([]byte, error) {
	if len(r.Tenant) == 0 || len(r.Tenant) > MaxTenantLen {
		return buf, fmt.Errorf("%w: tenant name length %d outside [1, %d]", ErrProto, len(r.Tenant), MaxTenantLen)
	}
	if r.Op == OpInsertBatch && (len(r.Keys) == 0 || len(r.Keys) > MaxBatchKeys) {
		return buf, fmt.Errorf("%w: insert batch of %d keys outside [1, %d]", ErrProto, len(r.Keys), MaxBatchKeys)
	}
	if r.Op == OpInsert && len(r.Payload) > MaxValueLen {
		return buf, fmt.Errorf("%w: insert payload of %d bytes exceeds %d", ErrProto, len(r.Payload), MaxValueLen)
	}
	if r.Op == OpInsertBatch && r.Payloads != nil {
		if len(r.Payloads) != len(r.Keys) {
			return buf, fmt.Errorf("%w: insert batch with %d keys but %d payloads", ErrProto, len(r.Keys), len(r.Payloads))
		}
		total := reqFixed + len(r.Tenant) + 4 + 12*len(r.Keys)
		for _, v := range r.Payloads {
			if len(v) > MaxValueLen {
				return buf, fmt.Errorf("%w: batch member payload of %d bytes exceeds %d", ErrProto, len(v), MaxValueLen)
			}
			total += len(v)
		}
		if total > MaxPayload {
			return buf, fmt.Errorf("%w: valued insert batch of %d bytes exceeds frame limit %d", ErrProto, total, MaxPayload)
		}
	}
	buf, start := beginFrame(buf)
	buf = append(buf, r.Op)
	buf = binary.LittleEndian.AppendUint32(buf, r.ID)
	buf = append(buf, byte(len(r.Tenant)))
	buf = append(buf, r.Tenant...)
	switch r.Op {
	case OpInsert:
		buf = appendMember(buf, r.Key, r.Payload, r.Payload != nil)
	case OpInsertBatch:
		buf = appendMembers(buf, r.Keys, r.Payloads)
	case OpExtractBatch:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.N))
	case OpExtractMax, OpLen, OpSnapshot:
		// No body.
	default:
		return buf[:start], fmt.Errorf("%w: unknown request op %d", ErrProto, r.Op)
	}
	return endFrame(buf, start), nil
}

// AppendResponse frames r into buf and returns the extended slice.
func AppendResponse(buf []byte, r Response) []byte {
	buf, start := beginFrame(buf)
	buf = append(buf, r.Status)
	buf = binary.LittleEndian.AppendUint32(buf, r.ID)
	buf = append(buf, r.Op)
	switch r.Status {
	case StatusOK:
		switch r.Op {
		case OpExtractMax:
			buf = appendMember(buf, r.Value, r.Payload, r.Payload != nil)
		case OpLen:
			buf = binary.LittleEndian.AppendUint64(buf, r.Value)
		case OpExtractBatch:
			buf = appendMembers(buf, r.Keys, r.Payloads)
		case OpSnapshot:
			buf = append(buf, r.Blob...)
		}
	case StatusOverloaded:
		buf = binary.LittleEndian.AppendUint32(buf, r.RetryAfterMillis)
	case StatusBadRequest, StatusBadTenant:
		buf = append(buf, r.Msg...)
	}
	return endFrame(buf, start)
}

// appendMember appends one member: key uint64 LE and, when valued, vlen
// uint32 LE + vlen payload bytes. A valued member may carry an empty
// payload; only the key-only form omits the length.
func appendMember(buf []byte, key uint64, val []byte, valued bool) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, key)
	if valued {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
		buf = append(buf, val...)
	}
	return buf
}

// appendMembers appends a counted run of members: count uint32 LE, then
// every key, each valued when vals (aligned with keys) is non-nil.
func appendMembers(buf []byte, keys []uint64, vals [][]byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for i, k := range keys {
		var v []byte
		if vals != nil {
			v = vals[i]
		}
		buf = appendMember(buf, k, v, vals != nil)
	}
	return buf
}

// ParseRequest decodes a request payload (the bytes inside one frame).
// keyScratch, if non-nil, is reused for batch keys; the returned
// Request.Keys alias it.
func ParseRequest(payload []byte, keyScratch []uint64) (Request, error) {
	r, tenant, err := ParseRequestBytes(payload, keyScratch)
	if err != nil {
		return Request{}, err
	}
	r.Tenant = string(tenant)
	return r, nil
}

// ParseRequestBytes is ParseRequest without the tenant string: the
// returned Request's Tenant is empty and tenant aliases payload, so a
// server that resolves tenants by name pays no allocation per request.
func ParseRequestBytes(payload []byte, keyScratch []uint64) (r Request, tenant []byte, err error) {
	if len(payload) < reqFixed {
		return Request{}, nil, fmt.Errorf("%w: request payload of %d bytes shorter than preamble", ErrProto, len(payload))
	}
	r = Request{Op: payload[0], ID: binary.LittleEndian.Uint32(payload[1:])}
	tlen := int(payload[5])
	if tlen == 0 || tlen > MaxTenantLen || len(payload) < reqFixed+tlen {
		return Request{}, nil, fmt.Errorf("%w: tenant length %d does not fit payload of %d bytes", ErrProto, tlen, len(payload))
	}
	tenant = payload[reqFixed : reqFixed+tlen]
	body := payload[reqFixed+tlen:]
	switch r.Op {
	case OpInsert:
		r.Key, r.Payload, err = parseMember(body, "insert")
		if err != nil {
			return Request{}, nil, err
		}
	case OpInsertBatch:
		r.Keys, r.Payloads, err = parseMembers(body, keyScratch[:0], "insert-batch")
		if err == nil && len(r.Keys) == 0 {
			err = fmt.Errorf("%w: insert-batch count 0 outside [1, %d]", ErrProto, MaxBatchKeys)
		}
		if err != nil {
			return Request{}, nil, err
		}
	case OpExtractBatch:
		if len(body) != 4 {
			return Request{}, nil, fmt.Errorf("%w: extract-batch body of %d bytes (want 4)", ErrProto, len(body))
		}
		n := binary.LittleEndian.Uint32(body)
		if n == 0 || n > MaxBatchKeys {
			return Request{}, nil, fmt.Errorf("%w: extract-batch budget %d outside [1, %d]", ErrProto, n, MaxBatchKeys)
		}
		r.N = int(n)
	case OpExtractMax, OpLen, OpSnapshot:
		if len(body) != 0 {
			return Request{}, nil, fmt.Errorf("%w: op %d with %d unexpected body bytes", ErrProto, r.Op, len(body))
		}
	default:
		return Request{}, nil, fmt.Errorf("%w: unknown request op %d", ErrProto, r.Op)
	}
	return r, tenant, nil
}

// parseMember decodes one member covering exactly body: 8 bytes is the
// key-only form, 12 or more the valued form, whose vlen must account for
// every remaining byte. The payload aliases body. what names the body in
// errors.
func parseMember(body []byte, what string) (key uint64, val []byte, err error) {
	switch {
	case len(body) == 8:
		return binary.LittleEndian.Uint64(body), nil, nil
	case len(body) >= 12:
		vlen := binary.LittleEndian.Uint32(body[8:])
		if vlen > MaxValueLen || int(vlen) != len(body)-12 {
			return 0, nil, fmt.Errorf("%w: %s payload length %d disagrees with %d body bytes", ErrProto, what, vlen, len(body))
		}
		return binary.LittleEndian.Uint64(body), body[12 : 12+vlen : 12+vlen], nil
	}
	return 0, nil, fmt.Errorf("%w: %s body of %d bytes (want 8 or >= 12)", ErrProto, what, len(body))
}

// parseMembers decodes a counted run of members covering exactly body:
// count uint32 LE, then count keys (the key-only form) or count × (key
// uint64 LE + vlen uint32 LE + vlen bytes). A valued run is always longer
// than count keys (each member carries 4 extra bytes), so the two forms
// cannot collide. Keys are appended to keys; the payload views alias body
// and are nil for the key-only form. what names the body in errors.
func parseMembers(body []byte, keys []uint64, what string) ([]uint64, [][]byte, error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("%w: %s body of %d bytes (want >= 4)", ErrProto, what, len(body))
	}
	n := int(binary.LittleEndian.Uint32(body))
	if n > MaxBatchKeys {
		return nil, nil, fmt.Errorf("%w: %s count %d exceeds %d", ErrProto, what, n, MaxBatchKeys)
	}
	body = body[4:]
	if len(body) == 8*n {
		for i := 0; i < n; i++ {
			keys = append(keys, binary.LittleEndian.Uint64(body[8*i:]))
		}
		return keys, nil, nil
	}
	vals := make([][]byte, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		if len(body)-off < 12 {
			return nil, nil, fmt.Errorf("%w: %s valued member %d of %d truncated at byte %d", ErrProto, what, i, n, off)
		}
		keys = append(keys, binary.LittleEndian.Uint64(body[off:]))
		vlen := int(binary.LittleEndian.Uint32(body[off+8:]))
		off += 12
		if vlen > MaxValueLen || len(body)-off < vlen {
			return nil, nil, fmt.Errorf("%w: %s valued member %d payload length %d does not fit %d remaining bytes", ErrProto, what, i, vlen, len(body)-off)
		}
		vals = append(vals, body[off:off+vlen:off+vlen])
		off += vlen
	}
	if off != len(body) {
		return nil, nil, fmt.Errorf("%w: %s has %d trailing bytes after %d valued members", ErrProto, what, len(body)-off, n)
	}
	return keys, vals, nil
}

// ParseResponse decodes a response payload. keyScratch, if non-nil, is
// reused for batch keys; the returned Response.Keys/Blob/Msg alias the
// payload or scratch.
func ParseResponse(payload []byte, keyScratch []uint64) (Response, error) {
	if len(payload) < respFixed {
		return Response{}, fmt.Errorf("%w: response payload of %d bytes shorter than preamble", ErrProto, len(payload))
	}
	r := Response{Status: payload[0], ID: binary.LittleEndian.Uint32(payload[1:]), Op: payload[5]}
	body := payload[respFixed:]
	switch r.Status {
	case StatusOK:
		switch r.Op {
		case OpExtractMax:
			var err error
			if r.Value, r.Payload, err = parseMember(body, "extract OK"); err != nil {
				return Response{}, err
			}
		case OpLen:
			if len(body) != 8 {
				return Response{}, fmt.Errorf("%w: op %d OK body of %d bytes (want 8)", ErrProto, r.Op, len(body))
			}
			r.Value = binary.LittleEndian.Uint64(body)
		case OpExtractBatch:
			var err error
			if r.Keys, r.Payloads, err = parseMembers(body, keyScratch[:0], "extract-batch OK"); err != nil {
				return Response{}, err
			}
		case OpSnapshot:
			r.Blob = body
		case OpInsert, OpInsertBatch:
			if len(body) != 0 {
				return Response{}, fmt.Errorf("%w: op %d OK with %d unexpected body bytes", ErrProto, r.Op, len(body))
			}
		default:
			return Response{}, fmt.Errorf("%w: OK response for unknown op %d", ErrProto, r.Op)
		}
	case StatusEmpty, StatusClosed:
		if len(body) != 0 {
			return Response{}, fmt.Errorf("%w: status %d with %d unexpected body bytes", ErrProto, r.Status, len(body))
		}
	case StatusOverloaded:
		if len(body) != 4 {
			return Response{}, fmt.Errorf("%w: overloaded body of %d bytes (want 4)", ErrProto, len(body))
		}
		r.RetryAfterMillis = binary.LittleEndian.Uint32(body)
	case StatusBadRequest, StatusBadTenant:
		r.Msg = string(body)
	default:
		return Response{}, fmt.Errorf("%w: unknown response status %d", ErrProto, r.Status)
	}
	return r, nil
}

// TornError reports where and why a byte stream stopped parsing; it wraps
// ErrTorn for errors.Is classification, plus the underlying I/O error
// when a stream read caused the tear (so errors.Is can also recognize
// net.ErrClosed and friends through it).
type TornError struct {
	// Offset is the byte offset of the first undecodable frame.
	Offset int64
	// Reason describes what failed (short header, bad CRC, ...).
	Reason string
	// Err is the I/O error behind a stream tear, when there was one.
	Err error
}

// Error implements error.
func (e *TornError) Error() string {
	return fmt.Sprintf("wire: torn frame at byte %d (%s)", e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrTorn) — and, for stream tears,
// errors.Is(err, <the underlying I/O error>) — true for TornError values.
func (e *TornError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrTorn, e.Err}
	}
	return []error{ErrTorn}
}

// Decoder walks a byte image of a frame stream (tests, fuzzing, recorded
// traces). It never panics on arbitrary input and distinguishes io.EOF
// (clean end on a frame boundary) from ErrTorn (trailing bytes that do
// not frame).
type Decoder struct {
	b   []byte
	off int64
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Offset returns the byte offset of the next undecoded frame.
func (d *Decoder) Offset() int64 { return d.off }

func (d *Decoder) torn(reason string) ([]byte, error) {
	return nil, &TornError{Offset: d.off, Reason: reason}
}

// Next returns the next frame's payload. It returns io.EOF when the
// stream ends exactly on a frame boundary.
func (d *Decoder) Next() ([]byte, error) {
	rest := d.b[d.off:]
	if len(rest) == 0 {
		return nil, io.EOF
	}
	if len(rest) < HeaderSize {
		return d.torn("short header")
	}
	length := binary.LittleEndian.Uint32(rest)
	if length < 1 || length > MaxPayload {
		return d.torn(fmt.Sprintf("implausible payload length %d", length))
	}
	if len(rest) < HeaderSize+int(length) {
		return d.torn("short payload")
	}
	payload := rest[HeaderSize : HeaderSize+int(length)]
	if crc := crc32.Checksum(payload, castagnoli); crc != binary.LittleEndian.Uint32(rest[4:]) {
		return d.torn("crc mismatch")
	}
	d.off += int64(HeaderSize + int(length))
	return payload, nil
}

// ReadFrame reads one frame from r and returns its payload, growing and
// reusing scratch across calls. Streams that end between frames return
// io.EOF; streams cut mid-frame return a TornError; an implausible length
// or CRC mismatch is a TornError too (a desynchronized stream cannot be
// re-synchronized, so the caller must drop the connection either way).
//
// The header is read into scratch too: a local array would escape through
// io.Reader and cost an allocation per frame.
func ReadFrame(r io.Reader, scratch []byte) (payload, newScratch []byte, err error) {
	if cap(scratch) < HeaderSize {
		scratch = make([]byte, 0, 512) // room for a typical frame, too
	}
	head := scratch[:HeaderSize]
	if _, err := io.ReadFull(r, head); err != nil {
		if err == io.EOF {
			return nil, scratch, io.EOF
		}
		return nil, scratch, &TornError{Reason: "short header: " + err.Error(), Err: err}
	}
	length := binary.LittleEndian.Uint32(head)
	if length < 1 || length > MaxPayload {
		return nil, scratch, &TornError{Reason: fmt.Sprintf("implausible payload length %d", length)}
	}
	crc := binary.LittleEndian.Uint32(head[4:]) // the body overwrites head
	if cap(scratch) < int(length) {
		scratch = make([]byte, 0, int(length))
	}
	body := scratch[:length]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, scratch, &TornError{Reason: "short payload: " + err.Error(), Err: err}
	}
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, scratch, &TornError{Reason: "crc mismatch"}
	}
	return body, scratch, nil
}
