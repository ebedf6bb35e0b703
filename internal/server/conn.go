package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/wire"
)

// connState is the per-connection machinery: a buffered reader the
// coalescer can inspect without blocking, a bounded response queue
// drained by a dedicated writer goroutine (flushing only when the queue
// goes idle, so pipelined responses share flushes the same way pipelined
// requests share batches), and reusable scratch buffers.
type connState struct {
	s      *Server
	conn   net.Conn
	br     *bufio.Reader
	respCh chan wire.Response
	id     uint32 // telemetry shard
	// hs holds this connection's own operation context on each tenant's
	// queue it has used (see handle).
	hs    map[*tenant]*sharded.Handle[[]byte]
	keys  []uint64
	frame []byte
	dst   []core.Element[[]byte]
}

// cloneValues detaches a request's payload views from the read buffer
// before they are stored in a queue (where they outlive the frame).
// Each member gets its own copy so an extracted element never pins its
// batch siblings' bytes. nil in (a key-only request) is nil out; nil
// members stay nil so key-only semantics survive mixed batches.
func cloneValues(vals [][]byte) [][]byte {
	if vals == nil {
		return nil
	}
	out := make([][]byte, len(vals))
	for i, v := range vals {
		if v != nil {
			out[i] = append([]byte{}, v...)
		}
	}
	return out
}

// serveConn runs one connection to completion.
func (s *Server) serveConn(conn net.Conn) {
	c := &connState{
		s:      s,
		conn:   conn,
		br:     bufio.NewReaderSize(conn, 64<<10),
		respCh: make(chan wire.Response, s.cfg.MaxInflight),
		id:     s.connSeq.Add(1),
		hs:     make(map[*tenant]*sharded.Handle[[]byte]),
	}
	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)
	c.readLoop()
	close(c.respCh)
	<-writerDone
	_ = conn.Close()
}

// writeLoop frames and writes responses in queue order, flushing whenever
// the queue drains so a burst of pipelined responses costs one flush.
func (c *connState) writeLoop(done chan struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(c.conn, 64<<10)
	var buf []byte
	for resp := range c.respCh {
		buf = wire.AppendResponse(buf[:0], resp)
		if _, err := bw.Write(buf); err != nil {
			// The connection is gone; keep draining so the reader never
			// blocks on a full queue.
			for range c.respCh {
			}
			return
		}
		if len(c.respCh) == 0 {
			if err := bw.Flush(); err != nil {
				for range c.respCh {
				}
				return
			}
		}
	}
	_ = bw.Flush()
}

// respond enqueues one response. It may block when the queue is full —
// that is the terminal backpressure: the writer is always draining, so a
// block here only ever waits for the socket.
func (c *connState) respond(r wire.Response) { c.respCh <- r }

// readLoop decodes and executes requests until the stream ends. A torn
// frame (including a peer that just disappears mid-frame) terminates the
// connection; a CRC-valid but ungrammatical frame gets StatusBadRequest
// and the stream continues — framing is still in sync.
func (c *connState) readLoop() {
	for {
		payload, frame, err := wire.ReadFrame(c.br, c.frame)
		c.frame = frame
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.s.protoErrors.Inc(c.id)
			}
			return
		}
		req, perr := wire.ParseRequest(payload, c.keys[:0])
		if perr != nil {
			c.badRequest(payload, perr)
			continue
		}
		if cap(req.Keys) > cap(c.keys) {
			c.keys = req.Keys[:0]
		}
		c.execute(req)
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

// free reports how many response slots remain. Only the read loop adds
// responses, so the value can only grow concurrently (the writer drains);
// admission decisions on it are safely conservative.
func (c *connState) free() int { return cap(c.respCh) - len(c.respCh) }

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

// execute runs one admitted, grammatical request. Inserts detour through
// the coalescer; everything else executes directly.
func (c *connState) execute(req wire.Request) {
	s := c.s
	if s.draining.Load() {
		c.respond(wire.Response{Status: wire.StatusClosed, ID: req.ID, Op: req.Op})
		return
	}
	if !c.admit(req) {
		return
	}
	t, ok := s.tenants[req.Tenant]
	if !ok {
		c.respond(wire.Response{
			Status: wire.StatusBadTenant, ID: req.ID, Op: req.Op,
			Msg: fmt.Sprintf("unknown tenant %q", req.Tenant),
		})
		return
	}
	switch req.Op {
	case wire.OpInsert:
		c.coalesceInsert(t, req)
	case wire.OpInsertBatch:
		c.handle(t).InsertBatch(req.Keys, cloneValues(req.Payloads))
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
		// val is the element's own copy (detached at insert), so handing
		// it to the response queue is safe.
		c.respond(wire.Response{Status: wire.StatusOK, ID: req.ID, Op: req.Op, Value: key, Payload: val})
	case wire.OpExtractBatch:
		c.dst = c.handle(t).ExtractBatch(c.dst[:0], req.N)
		s.opsTotal.Inc(c.id)
		if len(c.dst) == 0 {
			c.respond(wire.Response{Status: c.emptyStatus(t), ID: req.ID, Op: req.Op})
			return
		}
		// The response outlives c.dst (it waits in the queue); detach the
		// keys. The values are element-owned copies already. Only send the
		// valued form when at least one member carries bytes, so key-only
		// tenants keep the compact key-only frames.
		keys := make([]uint64, len(c.dst))
		var vals [][]byte
		for i := range c.dst {
			keys[i] = c.dst[i].Key
			if c.dst[i].Val != nil && vals == nil {
				vals = make([][]byte, len(c.dst))
			}
		}
		if vals != nil {
			for i := range c.dst {
				vals[i] = c.dst[i].Val
			}
		}
		s.extracts.Add(c.id, uint64(len(keys)))
		for i := range c.dst {
			c.dst[i] = core.Element[[]byte]{} // drop the payload references
		}
		c.respond(wire.Response{Status: wire.StatusOK, ID: req.ID, Op: req.Op, Keys: keys, Payloads: vals})
	case wire.OpLen:
		s.opsTotal.Inc(c.id)
		c.respond(wire.Response{Status: wire.StatusOK, ID: req.ID, Op: req.Op, Value: uint64(t.q.Len())})
	case wire.OpSnapshot:
		s.opsTotal.Inc(c.id)
		c.respond(wire.Response{Status: wire.StatusOK, ID: req.ID, Op: req.Op, Blob: s.statsJSON()})
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
	budget := s.cfg.MaxCoalesce
	if f := c.free() - 1; f < budget {
		budget = f
	}
	keys := c.keys[:0]
	keys = append(keys, req.Key)
	var vals [][]byte
	anyVal := req.Payload != nil
	if anyVal {
		vals = append(vals, append([]byte{}, req.Payload...))
	} else {
		vals = append(vals, nil)
	}
	ids := make([]uint32, 1, 8)
	ids[0] = req.ID
	for len(keys) < budget {
		next, ok := c.peekInsert(t.name)
		if !ok {
			break
		}
		keys = append(keys, next.Key)
		vals = append(vals, next.Payload) // already detached by peekInsert
		if next.Payload != nil {
			anyVal = true
		}
		ids = append(ids, next.ID)
	}
	if !anyVal {
		vals = nil // key-only batch: zero values, key-only WAL record
	}
	c.handle(t).InsertBatch(keys, vals)
	c.keys = keys[:0]
	s.batchSizes.Observe(c.id, uint64(len(keys)))
	s.inserts.Add(c.id, uint64(len(keys)))
	s.opsTotal.Add(c.id, uint64(len(ids)))
	for _, id := range ids {
		c.respond(wire.Response{Status: wire.StatusOK, ID: id, Op: wire.OpInsert})
	}
}

// peekInsert consumes and returns the next frame iff it is already fully
// buffered AND parses to an Insert for the same tenant. Anything else —
// incomplete frame, other op, other tenant, torn bytes — leaves the
// buffer untouched for the main loop.
func (c *connState) peekInsert(tenant string) (wire.Request, bool) {
	// Buffered() is what makes this non-blocking: Peek(n) would WAIT for
	// n bytes, but only already-received bytes count as pipelined.
	if c.br.Buffered() < wire.HeaderSize {
		return wire.Request{}, false
	}
	head, err := c.br.Peek(wire.HeaderSize)
	if err != nil || len(head) < wire.HeaderSize {
		return wire.Request{}, false
	}
	length := binary.LittleEndian.Uint32(head)
	if length < 1 || length > wire.MaxPayload {
		return wire.Request{}, false // torn; main loop reports and closes
	}
	total := wire.HeaderSize + int(length)
	if c.br.Buffered() < total {
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
	req, perr := wire.ParseRequest(payload, nil)
	if perr != nil || req.Tenant != tenant {
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
