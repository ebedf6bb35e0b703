package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/wire"
)

// connState is the per-connection machinery: a buffered reader the
// coalescer can inspect without blocking, response bursts encoded by the
// reader and written by a dedicated writer goroutine, and reusable
// scratch buffers.
type connState struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader
	id   uint32 // telemetry shard
	// hs holds this connection's own operation context on each tenant's
	// queue it has used (see handle).
	hs map[*tenant]*sharded.Handle[[]byte]
	// last is the previous request's tenant, tried before the tenant map.
	last *tenant

	// out is the burst being encoded, outN the responses in it. There are
	// two burst buffers: full hands a finished one to the writer, empty
	// returns it written, so the reader fills one while the writer writes
	// the other. unanswered counts responses handed off but not yet
	// written.
	out        []byte
	outN       int
	full       chan burst
	empty      chan []byte
	unanswered atomic.Int64

	keys  []uint64
	vals  [][]byte
	ids   []uint32
	frame []byte
	dst   []core.Element[[]byte]
}

// burst is a buffer of n encoded responses.
type burst struct {
	b []byte
	n int
}

// cloneValues appends to dst a copy of each of a request's payload views,
// detaching them from the read buffer before they are stored in a queue
// (where they outlive the frame). Each member gets its own copy so an
// extracted element never pins its batch siblings' bytes. nil in (a
// key-only request) is nil out; nil members stay nil so key-only
// semantics survive mixed batches.
func cloneValues(dst, vals [][]byte) [][]byte {
	if vals == nil {
		return nil
	}
	for _, v := range vals {
		if v != nil {
			v = append([]byte{}, v...)
		}
		dst = append(dst, v)
	}
	return dst
}

// serveConn runs one connection to completion.
func (s *Server) serveConn(conn net.Conn) {
	c := &connState{
		s:     s,
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 64<<10),
		id:    s.connSeq.Add(1),
		hs:    make(map[*tenant]*sharded.Handle[[]byte]),
		full:  make(chan burst, 1),
		empty: make(chan []byte, 1),
	}
	c.empty <- nil // the second buffer, grown on first use
	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)
	c.readLoop()
	c.flush()
	close(c.full)
	<-writerDone
	_ = conn.Close()
}

// writeLoop writes each burst with one write(2), in order.
func (c *connState) writeLoop(done chan struct{}) {
	defer close(done)
	var err error
	for b := range c.full {
		// After a failed write the connection is gone; keep returning
		// buffers so the reader never blocks on a handoff.
		if err == nil {
			_, err = c.conn.Write(b.b)
		}
		c.unanswered.Add(-int64(b.n))
		c.empty <- b.b[:0]
	}
}

// respond encodes one response into the burst. A response that would
// exceed MaxInflight unanswered ones first waits until the writer has
// written everything: the reader stops reading, which is the terminal
// backpressure — it only ever waits for the socket.
func (c *connState) respond(r wire.Response) {
	if c.free() <= 0 {
		c.drain()
	}
	c.out = wire.AppendResponse(c.out, r)
	c.outN++
}

// flush hands the burst to the writer and takes the other buffer back,
// waiting until the writer has finished with it.
func (c *connState) flush() {
	if c.outN == 0 {
		return
	}
	c.unanswered.Add(int64(c.outN))
	c.full <- burst{c.out, c.outN}
	c.out, c.outN = <-c.empty, 0
}

// drain flushes and then waits until the burst just handed off is
// written, so nothing is left unanswered.
func (c *connState) drain() {
	c.flush()
	b := <-c.empty
	c.empty <- b
}

// readLoop decodes and executes requests until the stream ends. A torn
// frame (including a peer that just disappears mid-frame) terminates the
// connection; a CRC-valid but ungrammatical frame gets StatusBadRequest
// and the stream continues — framing is still in sync. A burst ends, and
// its responses go to the writer, whenever no complete frame remains
// buffered.
func (c *connState) readLoop() {
	for {
		if _, ok := c.bufferedFrame(); !ok {
			c.flush()
		}
		payload, frame, err := wire.ReadFrame(c.br, c.frame)
		c.frame = frame
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.s.protoErrors.Inc(c.id)
			}
			return
		}
		req, tname, perr := wire.ParseRequestBytes(payload, c.keys[:0])
		if perr != nil {
			c.badRequest(payload, perr)
			continue
		}
		if cap(req.Keys) > cap(c.keys) {
			c.keys = req.Keys[:0]
		}
		c.execute(req, tname)
	}
}

// badRequest answers an ungrammatical frame, echoing the correlation id
// when the payload is long enough to carry one.
func (c *connState) badRequest(payload []byte, perr error) {
	c.s.protoErrors.Inc(c.id)
	var id uint32
	if len(payload) >= 5 {
		id = binary.LittleEndian.Uint32(payload[1:])
	}
	c.respond(wire.Response{Status: wire.StatusBadRequest, ID: id, Msg: perr.Error()})
}

// handle returns the connection's sharded.Handle on t's queue. Queue
// operations go through it, not through the queue's pooled contexts, so a
// connection's inserts keep one home shard for as long as it lives: the
// pool re-homes whoever calls next after two idle garbage collections,
// which made a tenant's element placement — and with it its rank error —
// depend on the collector's timing.
func (c *connState) handle(t *tenant) *sharded.Handle[[]byte] {
	h := c.hs[t]
	if h == nil {
		h = t.q.NewHandle()
		c.hs[t] = h
	}
	return h
}

// free reports how many more responses may be encoded before
// MaxInflight are unanswered. Only the read loop adds responses, so the
// value can only grow concurrently (the writer writes); admission
// decisions on it are safely conservative.
func (c *connState) free() int {
	return c.s.cfg.MaxInflight - int(c.unanswered.Load()) - c.outN
}

// admit applies admission control: a request that could not leave a slot
// for its own response — the client has ~MaxInflight unanswered requests
// — is refused with StatusOverloaded and a retry-after hint.
func (c *connState) admit(req wire.Request) bool {
	if c.free() >= 2 {
		return true
	}
	c.s.overloads.Inc(c.id)
	c.respond(wire.Response{
		Status: wire.StatusOverloaded, ID: req.ID, Op: req.Op,
		RetryAfterMillis: uint32(c.s.cfg.RetryAfter.Milliseconds()),
	})
	return false
}

// tenant resolves a request's tenant name without allocating: the
// previous request's tenant first, then the map, whose string(name) index
// does not copy. nil means no such tenant.
func (c *connState) tenant(name []byte) *tenant {
	if c.last != nil && c.last.name == string(name) {
		return c.last
	}
	t := c.s.tenants[string(name)]
	if t != nil {
		c.last = t
	}
	return t
}

// execute runs one admitted, grammatical request on the tenant named
// tname. Inserts detour through the coalescer; everything else executes
// directly.
func (c *connState) execute(req wire.Request, tname []byte) {
	s := c.s
	if s.draining.Load() {
		c.respond(wire.Response{Status: wire.StatusClosed, ID: req.ID, Op: req.Op})
		return
	}
	if !c.admit(req) {
		return
	}
	t := c.tenant(tname)
	if t == nil {
		c.respond(wire.Response{
			Status: wire.StatusBadTenant, ID: req.ID, Op: req.Op,
			Msg: fmt.Sprintf("unknown tenant %q", tname),
		})
		return
	}
	switch req.Op {
	case wire.OpInsert:
		c.coalesceInsert(t, req)
	case wire.OpInsertBatch:
		vals := cloneValues(c.vals[:0], req.Payloads)
		c.handle(t).InsertBatch(req.Keys, vals)
		c.release(vals)
		s.batchSizes.Observe(c.id, uint64(len(req.Keys)))
		s.inserts.Add(c.id, uint64(len(req.Keys)))
		s.opsTotal.Inc(c.id)
		c.respond(wire.Response{Status: wire.StatusOK, ID: req.ID, Op: req.Op})
	case wire.OpExtractMax:
		key, val, ok := c.handle(t).TryExtractMax()
		s.opsTotal.Inc(c.id)
		if !ok {
			c.respond(wire.Response{Status: c.emptyStatus(t), ID: req.ID, Op: req.Op})
			return
		}
		s.extracts.Inc(c.id)
		c.respond(wire.Response{Status: wire.StatusOK, ID: req.ID, Op: req.Op, Value: key, Payload: val})
	case wire.OpExtractBatch:
		c.dst = c.handle(t).ExtractBatch(c.dst[:0], req.N)
		s.opsTotal.Inc(c.id)
		if len(c.dst) == 0 {
			c.respond(wire.Response{Status: c.emptyStatus(t), ID: req.ID, Op: req.Op})
			return
		}
		// The response is encoded before anything else runs, so the
		// scratch views need no copies. Only send the valued form when at
		// least one member carries bytes, so key-only tenants keep the
		// compact key-only frames.
		keys, vals, valued := c.keys[:0], c.vals[:0], false
		for _, e := range c.dst {
			keys = append(keys, e.Key)
			vals = append(vals, e.Val)
			valued = valued || e.Val != nil
		}
		resp := wire.Response{Status: wire.StatusOK, ID: req.ID, Op: req.Op, Keys: keys}
		if valued {
			resp.Payloads = vals
		}
		c.respond(resp)
		s.extracts.Add(c.id, uint64(len(keys)))
		clear(c.dst) // drop the payload references
		c.keys = keys[:0]
		c.release(vals)
	case wire.OpLen:
		s.opsTotal.Inc(c.id)
		c.respond(wire.Response{Status: wire.StatusOK, ID: req.ID, Op: req.Op, Value: uint64(t.q.Len())})
	case wire.OpSnapshot:
		s.opsTotal.Inc(c.id)
		c.respond(wire.Response{Status: wire.StatusOK, ID: req.ID, Op: req.Op, Blob: s.statsJSON()})
	}
}

// release keeps vals' array as the values scratch, minus its references:
// the scratch must not pin values the queue or the client now own.
func (c *connState) release(vals [][]byte) {
	if vals != nil {
		clear(vals)
		c.vals = vals[:0]
	}
}

// emptyStatus distinguishes "nothing to extract right now" from "the
// queue is closed and will never have anything again".
func (c *connState) emptyStatus(t *tenant) byte {
	if t.q.Closed() {
		return wire.StatusClosed
	}
	return wire.StatusEmpty
}

// coalesceInsert turns a run of consecutive pipelined same-tenant Insert
// frames into one InsertBatch. It only consumes frames already complete
// in the read buffer — it never blocks waiting for more — so coalescing
// is free parallelism when the client pipelines and a plain insert when
// it doesn't. The budget leaves one response slot spare per member (they
// each get their own OK) and caps at MaxCoalesce. Payloads ride along:
// the head's bytes alias the frame buffer and peeked members' alias the
// read buffer, so both are detached before the batch is stored.
func (c *connState) coalesceInsert(t *tenant, req wire.Request) {
	s := c.s
	budget := min(s.cfg.MaxCoalesce, c.free()-1)
	var head []byte
	if req.Payload != nil {
		head = append([]byte{}, req.Payload...)
	}
	keys := append(c.keys[:0], req.Key)
	vals := append(c.vals[:0], head)
	ids := append(c.ids[:0], req.ID)
	anyVal := head != nil
	for len(keys) < budget {
		next, ok := c.peekInsert(t)
		if !ok {
			break
		}
		keys = append(keys, next.Key)
		vals = append(vals, next.Payload) // already detached by peekInsert
		anyVal = anyVal || next.Payload != nil
		ids = append(ids, next.ID)
	}
	batchVals := vals
	if !anyVal {
		batchVals = nil // key-only batch: zero values, key-only WAL record
	}
	c.handle(t).InsertBatch(keys, batchVals)
	c.release(vals)
	c.keys, c.ids = keys[:0], ids[:0]
	s.batchSizes.Observe(c.id, uint64(len(keys)))
	s.inserts.Add(c.id, uint64(len(keys)))
	s.opsTotal.Add(c.id, uint64(len(ids)))
	for _, id := range ids {
		c.respond(wire.Response{Status: wire.StatusOK, ID: id, Op: wire.OpInsert})
	}
}

// bufferedFrame reports the size of the next frame and whether all of it
// is already in the read buffer. Buffered() is what makes this
// non-blocking: Peek(n) would WAIT for n bytes, but only already-received
// bytes count as pipelined. A torn length reads as not buffered; the main
// loop reports it and closes.
func (c *connState) bufferedFrame() (int, bool) {
	if c.br.Buffered() < wire.HeaderSize {
		return 0, false
	}
	head, err := c.br.Peek(wire.HeaderSize)
	if err != nil {
		return 0, false
	}
	length := binary.LittleEndian.Uint32(head)
	if length < 1 || length > wire.MaxPayload {
		return 0, false
	}
	total := wire.HeaderSize + int(length)
	return total, c.br.Buffered() >= total
}

// peekInsert consumes and returns the next frame iff it is already fully
// buffered AND parses to an Insert for tenant t. Anything else —
// incomplete frame, other op, other tenant, torn bytes — leaves the
// buffer untouched for the main loop.
func (c *connState) peekInsert(t *tenant) (wire.Request, bool) {
	total, ok := c.bufferedFrame()
	if !ok {
		return wire.Request{}, false
	}
	frame, err := c.br.Peek(total)
	if err != nil {
		return wire.Request{}, false
	}
	payload, derr := wire.NewDecoder(frame).Next()
	if derr != nil {
		return wire.Request{}, false
	}
	if len(payload) < 1 || payload[0] != wire.OpInsert {
		return wire.Request{}, false
	}
	req, tname, perr := wire.ParseRequestBytes(payload, nil)
	if perr != nil || string(tname) != t.name {
		return wire.Request{}, false
	}
	if req.Payload != nil {
		// The parsed payload aliases the peeked bytes, which Discard (and
		// any later buffer refill) invalidates; detach it now.
		req.Payload = append([]byte{}, req.Payload...)
	}
	if _, err := c.br.Discard(total); err != nil {
		return wire.Request{}, false
	}
	return req, true
}
