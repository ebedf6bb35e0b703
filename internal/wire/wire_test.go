package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpInsert, ID: 1, Tenant: "a", Key: 42},
		{Op: OpInsert, ID: 0xffffffff, Tenant: strings.Repeat("t", MaxTenantLen), Key: 0},
		{Op: OpInsertBatch, ID: 2, Tenant: "tenant-b", Keys: []uint64{7, 7, 9, 1 << 60}},
		{Op: OpExtractMax, ID: 3, Tenant: "a"},
		{Op: OpExtractBatch, ID: 4, Tenant: "a", N: 128},
		{Op: OpLen, ID: 5, Tenant: "z"},
		{Op: OpSnapshot, ID: 6, Tenant: "a"},
	}
	var stream []byte
	for _, r := range cases {
		var err error
		stream, err = AppendRequest(stream, r)
		if err != nil {
			t.Fatalf("AppendRequest(%+v): %v", r, err)
		}
	}
	d := NewDecoder(stream)
	var scratch []uint64
	for i, want := range cases {
		payload, err := d.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := ParseRequest(payload, scratch)
		if err != nil {
			t.Fatalf("frame %d: ParseRequest: %v", i, err)
		}
		if got.Op != want.Op || got.ID != want.ID || got.Tenant != want.Tenant ||
			got.Key != want.Key || got.N != want.N || len(got.Keys) != len(want.Keys) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		for j := range want.Keys {
			if got.Keys[j] != want.Keys[j] {
				t.Fatalf("frame %d key %d: got %d want %d", i, j, got.Keys[j], want.Keys[j])
			}
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want clean io.EOF at stream end, got %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Status: StatusOK, ID: 1, Op: OpInsert},
		{Status: StatusOK, ID: 2, Op: OpInsertBatch},
		{Status: StatusOK, ID: 3, Op: OpExtractMax, Value: 99},
		{Status: StatusOK, ID: 4, Op: OpExtractBatch, Keys: []uint64{5, 4, 3}},
		{Status: StatusOK, ID: 5, Op: OpLen, Value: 12345},
		{Status: StatusOK, ID: 6, Op: OpSnapshot, Blob: []byte(`{"ok":true}`)},
		{Status: StatusEmpty, ID: 7, Op: OpExtractMax},
		{Status: StatusClosed, ID: 8, Op: OpInsert},
		{Status: StatusOverloaded, ID: 9, Op: OpInsert, RetryAfterMillis: 250},
		{Status: StatusBadRequest, ID: 10, Op: OpInsert, Msg: "no"},
		{Status: StatusBadTenant, ID: 11, Op: OpLen, Msg: "unknown tenant \"x\""},
	}
	var stream []byte
	for _, r := range cases {
		stream = AppendResponse(stream, r)
	}
	d := NewDecoder(stream)
	var scratch []uint64
	for i, want := range cases {
		payload, err := d.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := ParseResponse(payload, scratch)
		if err != nil {
			t.Fatalf("frame %d: ParseResponse: %v", i, err)
		}
		if got.Status != want.Status || got.ID != want.ID || got.Op != want.Op ||
			got.Value != want.Value || got.RetryAfterMillis != want.RetryAfterMillis ||
			got.Msg != want.Msg || !bytes.Equal(got.Blob, want.Blob) ||
			len(got.Keys) != len(want.Keys) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		for j := range want.Keys {
			if got.Keys[j] != want.Keys[j] {
				t.Fatalf("frame %d key %d: got %d want %d", i, j, got.Keys[j], want.Keys[j])
			}
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want clean io.EOF at stream end, got %v", err)
	}
}

// TestFrameRejection tables the malformed byte streams the decoder must
// classify as torn (never panic, never yield a frame).
func TestFrameRejection(t *testing.T) {
	valid, err := AppendRequest(nil, Request{Op: OpInsert, ID: 1, Tenant: "a", Key: 7})
	if err != nil {
		t.Fatal(err)
	}
	oversized := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(oversized, MaxPayload+1)

	zeroLen := make([]byte, HeaderSize+4)

	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff

	cases := []struct {
		name   string
		stream []byte
		reason string
	}{
		{"short header", valid[:5], "short header"},
		{"short payload", valid[:len(valid)-3], "short payload"},
		{"oversized length", oversized, "implausible payload length"},
		{"zero length", zeroLen, "implausible payload length"},
		{"crc mismatch", badCRC, "crc mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Byte-image decoder.
			d := NewDecoder(tc.stream)
			_, err := d.Next()
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("Decoder.Next: want ErrTorn, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("Decoder.Next: reason %q not in %q", tc.reason, err.Error())
			}
			// Streaming reader over the same bytes.
			_, _, err = ReadFrame(bytes.NewReader(tc.stream), nil)
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("ReadFrame: want ErrTorn, got %v", err)
			}
		})
	}

	// Torn frames after valid ones: the valid prefix still decodes.
	stream := append(append([]byte(nil), valid...), valid[:6]...)
	d := NewDecoder(stream)
	if _, err := d.Next(); err != nil {
		t.Fatalf("valid prefix frame: %v", err)
	}
	if _, err := d.Next(); !errors.Is(err, ErrTorn) {
		t.Fatalf("torn tail: want ErrTorn, got %v", err)
	}
	var te *TornError
	if _, err := d.Next(); !errors.As(err, &te) || te.Offset != int64(len(valid)) {
		t.Fatalf("torn offset: want %d, got %v", len(valid), te)
	}
}

// TestParseRejection tables CRC-valid payloads that violate the grammar:
// these must be ErrProto, not ErrTorn.
func TestParseRejection(t *testing.T) {
	mk := func(b ...byte) []byte { return b }
	reqCases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short preamble", mk(OpInsert, 0, 0)},
		{"zero tenant len", mk(OpInsert, 0, 0, 0, 0, 0)},
		{"tenant overruns payload", mk(OpInsert, 0, 0, 0, 0, 9, 'a')},
		{"unknown op", mk(99, 0, 0, 0, 0, 1, 'a')},
		{"insert short key", mk(OpInsert, 0, 0, 0, 0, 1, 'a', 1, 2)},
		{"len with body", mk(OpLen, 0, 0, 0, 0, 1, 'a', 0)},
		{"batch zero count", mk(OpInsertBatch, 0, 0, 0, 0, 1, 'a', 0, 0, 0, 0)},
		{"batch count mismatch", mk(OpInsertBatch, 0, 0, 0, 0, 1, 'a', 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8)},
		{"extract-batch zero budget", mk(OpExtractBatch, 0, 0, 0, 0, 1, 'a', 0, 0, 0, 0)},
	}
	for _, tc := range reqCases {
		t.Run("req/"+tc.name, func(t *testing.T) {
			if _, err := ParseRequest(tc.payload, nil); !errors.Is(err, ErrProto) {
				t.Fatalf("want ErrProto, got %v", err)
			}
		})
	}

	respCases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown status", mk(99, 0, 0, 0, 0, OpInsert)},
		{"ok unknown op", mk(StatusOK, 0, 0, 0, 0, 99)},
		{"extract short value", mk(StatusOK, 0, 0, 0, 0, OpExtractMax, 1)},
		{"overloaded short body", mk(StatusOverloaded, 0, 0, 0, 0, OpInsert, 1)},
		{"empty with body", mk(StatusEmpty, 0, 0, 0, 0, OpExtractMax, 1)},
		{"batch count mismatch", mk(StatusOK, 0, 0, 0, 0, OpExtractBatch, 3, 0, 0, 0)},
	}
	for _, tc := range respCases {
		t.Run("resp/"+tc.name, func(t *testing.T) {
			if _, err := ParseResponse(tc.payload, nil); !errors.Is(err, ErrProto) {
				t.Fatalf("want ErrProto, got %v", err)
			}
		})
	}
}

// TestAppendRequestRejection covers requests the grammar cannot carry.
func TestAppendRequestRejection(t *testing.T) {
	cases := []Request{
		{Op: OpInsert, Tenant: ""},
		{Op: OpInsert, Tenant: strings.Repeat("x", MaxTenantLen+1)},
		{Op: OpInsertBatch, Tenant: "a"},
		{Op: OpInsertBatch, Tenant: "a", Keys: make([]uint64, MaxBatchKeys+1)},
		{Op: 0, Tenant: "a"},
	}
	for i, r := range cases {
		if buf, err := AppendRequest(nil, r); !errors.Is(err, ErrProto) {
			t.Fatalf("case %d: want ErrProto, got %v", i, err)
		} else if len(buf) != 0 {
			t.Fatalf("case %d: rejected request left %d bytes in buf", i, len(buf))
		}
	}
}

// TestClientPipelined exercises the pipelined client against a minimal
// in-process echo server: Start×N + one Flush arrive as one TCP burst,
// responses route back by id in any order.
func TestClientPipelined(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var scratch []byte
		var out []byte
		var resps []Response
		for {
			payload, ns, err := ReadFrame(conn, scratch)
			scratch = ns
			if err != nil {
				return
			}
			req, err := ParseRequest(payload, nil)
			if err != nil {
				return
			}
			// Echo as an extract response so Value travels back.
			resps = append(resps, Response{Status: StatusOK, ID: req.ID, Op: OpExtractMax, Value: req.Key * 2})
			// Respond in reverse arrival order once three pile up, to
			// prove id-based routing.
			if len(resps) == 3 {
				out = out[:0]
				for i := len(resps) - 1; i >= 0; i-- {
					out = AppendResponse(out, resps[i])
				}
				if _, err := conn.Write(out); err != nil {
					return
				}
				resps = resps[:0]
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var ps []*Pending
	for i := 0; i < 3; i++ {
		p, err := c.Start(Request{Op: OpInsert, Tenant: "t", Key: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if resp.Status != StatusOK || resp.Value != uint64(i)*2 {
			t.Fatalf("wait %d: got %+v", i, resp)
		}
	}
}

// failingConn is a net.Conn whose writes start failing once armed.
type failingConn struct {
	net.Conn
	failWrites atomic.Bool
}

var errWriteSide = errors.New("write side down")

func (c *failingConn) Write(p []byte) (int, error) {
	if c.failWrites.Load() {
		return 0, errWriteSide
	}
	return c.Conn.Write(p)
}

// TestClientWriteFailureWakesWaiters: when a Start or Flush fails on the
// write side, requests already in flight must not wait for the peer to
// close — the client closes the connection itself, the read loop ends and
// every Wait returns the error.
func TestClientWriteFailureWakesWaiters(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	go io.Copy(io.Discard, srv) // a peer that reads, never answers, never closes

	fc := &failingConn{Conn: cli}
	c := NewClient(fc)
	var ps []*Pending
	for i := 0; i < 3; i++ {
		p, err := c.Start(Request{Op: OpInsert, Tenant: "t", Key: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	fc.failWrites.Store(true)
	if _, err := c.Start(Request{Op: OpInsert, Tenant: "t", Key: 3}); err != nil {
		t.Fatalf("Start only buffers, got %v", err)
	}
	if err := c.Flush(); !errors.Is(err, errWriteSide) {
		t.Fatalf("Flush = %v, want the write error", err)
	}

	woke := make(chan error, len(ps))
	for _, p := range ps {
		go func() {
			_, err := p.Wait()
			woke <- err
		}()
	}
	for range ps {
		select {
		case err := <-woke:
			if !errors.Is(err, errWriteSide) {
				t.Fatalf("Wait = %v, want the write error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Wait still blocked after the write side failed")
		}
	}
	if _, err := c.Start(Request{Op: OpInsert, Tenant: "t", Key: 4}); !errors.Is(err, errWriteSide) {
		t.Fatalf("Start after failure = %v, want the sticky error", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after failure = %v", err)
	}
}

// reverseEcho serves one connection: it answers each burst of requests —
// every frame that arrived together — in reverse order, echoing 2·Key as
// Value, except requests for tenant "mute", which it never answers.
func reverseEcho(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var scratch, out []byte
		var resps []Response
		for {
			payload, ns, err := ReadFrame(br, scratch)
			scratch = ns
			if err != nil {
				return
			}
			req, err := ParseRequest(payload, nil)
			if err != nil {
				return
			}
			if req.Tenant != "mute" {
				resps = append(resps, Response{Status: StatusOK, ID: req.ID, Op: OpExtractMax, Value: req.Key * 2})
			}
			if br.Buffered() > 0 || len(resps) == 0 {
				continue
			}
			out = out[:0]
			for i := len(resps) - 1; i >= 0; i-- {
				out = AppendResponse(out, resps[i])
			}
			resps = resps[:0]
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestClientPendingRecycle shares one Client between goroutines whose
// request handles are recycled under them: every response must reach the
// request it answers, exactly once, and a Close with requests outstanding
// must fail every one of them.
func TestClientPendingRecycle(t *testing.T) {
	c, err := Dial(reverseEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker, window = 8, 2000, 4
	var mu sync.Mutex
	deliveries := make(map[uint32]int) // by response id
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ps [window]*Pending
			for n := 0; n < perWorker; n += window {
				for i := range ps {
					p, err := c.Start(Request{Op: OpInsert, Tenant: "t", Key: uint64(w)<<32 | uint64(n+i)})
					if err != nil {
						t.Error(err)
						return
					}
					ps[i] = p
				}
				if err := c.Flush(); err != nil {
					t.Error(err)
					return
				}
				for i, p := range ps {
					resp, err := p.Wait()
					if key := uint64(w)<<32 | uint64(n+i); err != nil || resp.Value != 2*key {
						t.Errorf("worker %d request %d: got %+v %v, want value %d", w, n+i, resp, err, 2*key)
						return
					}
					mu.Lock()
					deliveries[resp.ID]++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(deliveries) != workers*perWorker {
		t.Fatalf("%d distinct response ids, want %d", len(deliveries), workers*perWorker)
	}
	for id, n := range deliveries {
		if n != 1 {
			t.Fatalf("response id %d delivered %d times", id, n)
		}
	}

	// Requests the server never answers, on recycled handles, then Close.
	woke := make(chan error, workers)
	for w := 0; w < workers; w++ {
		p, err := c.Start(Request{Op: OpInsert, Tenant: "mute", Key: 1})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := p.Wait()
			woke <- err
		}()
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for w := 0; w < workers; w++ {
		select {
		case err := <-woke:
			if err == nil {
				t.Fatal("Wait after Close returned no error")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Wait still blocked after Close")
		}
	}
	if _, err := c.Start(Request{Op: OpInsert, Tenant: "t", Key: 1}); err == nil {
		t.Fatal("Start after Close succeeded")
	}
}
