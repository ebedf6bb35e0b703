package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzFrameDecode drives the frame decoder and both payload parsers with
// arbitrary bytes, mirroring the WAL's FuzzWALDecode. Properties:
//
//  1. Never panic, whatever the input, and always terminate.
//  2. Encode → decode round-trips: a stream of AppendRequest frames
//     decodes back to the same request sequence, ending in clean io.EOF.
//  3. Torn prefixes classify cleanly: every proper byte prefix of a
//     valid stream yields the frames that fit, then ErrTorn (or io.EOF
//     exactly on a frame boundary) — never a frame that was not written.
func FuzzFrameDecode(f *testing.F) {
	var seed []byte
	seed, _ = AppendRequest(seed, Request{Op: OpInsert, ID: 1, Tenant: "a", Key: 42})
	seed, _ = AppendRequest(seed, Request{Op: OpInsertBatch, ID: 2, Tenant: "b", Keys: []uint64{7, 7, 9}})
	seed, _ = AppendRequest(seed, Request{Op: OpExtractBatch, ID: 3, Tenant: "a", N: 4})
	seed = AppendResponse(seed, Response{Status: StatusOK, ID: 3, Op: OpExtractBatch, Keys: []uint64{9}})
	seed, _ = AppendRequest(seed, Request{Op: OpInsert, ID: 4, Tenant: "a", Key: 5, Payload: []byte("val")})
	seed, _ = AppendRequest(seed, Request{Op: OpInsertBatch, ID: 5, Tenant: "b", Keys: []uint64{1, 2}, Payloads: [][]byte{nil, []byte("x")}})
	seed = AppendResponse(seed, Response{Status: StatusOK, ID: 4, Op: OpExtractMax, Value: 5, Payload: []byte("val")})
	f.Add(seed, uint16(len(seed)))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}, uint16(3))
	f.Add(bytes.Repeat([]byte{0}, 64), uint16(64))

	f.Fuzz(func(t *testing.T, raw []byte, cutAt uint16) {
		// Property 1: arbitrary bytes never panic — decoder and both
		// parsers — and the decoder always advances or stops.
		d := NewDecoder(raw)
		prevOff := d.off
		for {
			payload, err := d.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTorn) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				break
			}
			_, _ = ParseRequest(payload, nil)
			_, _ = ParseResponse(payload, nil)
			if d.off <= prevOff {
				t.Fatalf("decoder did not advance: %d -> %d", prevOff, d.off)
			}
			prevOff = d.off
		}

		// Reinterpret the fuzz input as request content and check
		// properties 2 and 3 on the valid stream built from it.
		var enc []byte
		var want []Request
		for i := 0; i+1 < len(raw) && len(want) < 16; i += 2 {
			r := Request{ID: uint32(i), Tenant: string('a' + raw[i]%3)}
			switch raw[i] % 6 {
			case 0:
				r.Op, r.Key = OpInsert, uint64(raw[i+1])
			case 1:
				r.Op = OpInsertBatch
				n := int(raw[i+1]%7) + 1
				for k := 0; k < n; k++ {
					r.Keys = append(r.Keys, uint64(k)*3+uint64(raw[i]))
				}
			case 2:
				r.Op, r.N = OpExtractBatch, int(raw[i+1]%9)+1
			case 3:
				// Valued insert: payload bytes derived from the input.
				r.Op, r.Key = OpInsert, uint64(raw[i+1])
				r.Payload = bytes.Repeat([]byte{raw[i+1]}, int(raw[i+1]>>4)%8)
			case 4:
				// Valued batch, mixing nil and non-nil members.
				r.Op = OpInsertBatch
				n := int(raw[i+1]%5) + 1
				for k := 0; k < n; k++ {
					r.Keys = append(r.Keys, uint64(k)*3+uint64(raw[i]))
					if k%2 == 0 {
						r.Payloads = append(r.Payloads, bytes.Repeat([]byte{raw[i+1] + byte(k)}, k%4))
					} else {
						r.Payloads = append(r.Payloads, nil)
					}
				}
			default:
				r.Op = OpExtractMax
			}
			var err error
			enc, err = AppendRequest(enc, r)
			if err != nil {
				t.Fatalf("AppendRequest(%+v): %v", r, err)
			}
			want = append(want, r)
		}

		// Property 2: the full stream round-trips.
		d = NewDecoder(enc)
		for i, w := range want {
			payload, err := d.Next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			got, err := ParseRequest(payload, nil)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if got.Op != w.Op || got.ID != w.ID || got.Tenant != w.Tenant ||
				got.Key != w.Key || got.N != w.N || len(got.Keys) != len(w.Keys) {
				t.Fatalf("frame %d: got %+v want %+v", i, got, w)
			}
			if !bytes.Equal(got.Payload, w.Payload) {
				t.Fatalf("frame %d payload: got %v want %v", i, got.Payload, w.Payload)
			}
			if len(got.Payloads) != len(w.Payloads) {
				t.Fatalf("frame %d: %d payloads, want %d", i, len(got.Payloads), len(w.Payloads))
			}
			for j := range w.Payloads {
				if !bytes.Equal(got.Payloads[j], w.Payloads[j]) {
					t.Fatalf("frame %d payload %d: got %v want %v", i, j, got.Payloads[j], w.Payloads[j])
				}
			}
		}
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("stream end: want io.EOF, got %v", err)
		}

		// Property 3: every proper prefix decodes the frames that fit and
		// then stops with ErrTorn or io.EOF — never an unwritten frame.
		cut := int(cutAt) % (len(enc) + 1)
		d = NewDecoder(enc[:cut])
		n := 0
		for {
			payload, err := d.Next()
			if err != nil {
				if errors.Is(err, io.EOF) && d.off != int64(cut) {
					t.Fatalf("EOF off a frame boundary: offset %d cut %d", d.off, cut)
				}
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTorn) {
					t.Fatalf("prefix decode: unclassified error %v", err)
				}
				break
			}
			got, err := ParseRequest(payload, nil)
			if err != nil {
				t.Fatalf("prefix frame %d: %v", n, err)
			}
			if n >= len(want) || got.ID != want[n].ID || got.Op != want[n].Op {
				t.Fatalf("prefix yielded unwritten frame %d: %+v", n, got)
			}
			n++
		}
	})
}
