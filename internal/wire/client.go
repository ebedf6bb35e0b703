package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
)

// Client speaks the wire protocol over one connection. It pipelines:
// Start frames a request into the connection's write buffer without
// flushing, so consecutive Starts travel (and arrive at the server) back
// to back — which is exactly the pattern the server's connection-level
// coalescer turns into one InsertBatch. Flush pushes the buffer; Do is
// the one-shot Start+Flush+wait convenience.
//
// A background read loop routes responses to waiters by correlation id,
// so a Client is safe for concurrent use and responses may be awaited in
// any order.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer

	mu      sync.Mutex // guards bw, nextID, pending, err
	nextID  uint32
	pending map[uint32]chan Response
	err     error // sticky: first read-loop or write failure

	buf  []byte // AppendRequest scratch, guarded by mu
	done chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// Pending is an in-flight request handle returned by Start.
type Pending struct {
	c  *Client
	ch chan Response
	id uint32
}

// Dial connects to a zmsqd server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection. The Client owns conn and
// closes it on Close or on the first protocol/transport error.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		pending: make(map[uint32]chan Response),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Start frames r into the write buffer — without flushing — and returns
// a handle to await the response. The request's ID field is assigned by
// the client; any value the caller set is overwritten.
func (c *Client) Start(r Request) (*Pending, error) {
	ch := make(chan Response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	r.ID = c.nextID
	var err error
	c.buf, err = AppendRequest(c.buf[:0], r)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.pending[r.ID] = ch
	if _, werr := c.bw.Write(c.buf); werr != nil {
		delete(c.pending, r.ID)
		c.fail(werr)
		c.mu.Unlock()
		return nil, werr
	}
	id := r.ID
	c.mu.Unlock()
	return &Pending{c: c, ch: ch, id: id}, nil
}

// Flush pushes every Started request to the server.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if err := c.bw.Flush(); err != nil {
		c.fail(err)
		return err
	}
	return nil
}

// Wait blocks until the response arrives (or the connection dies).
func (p *Pending) Wait() (Response, error) {
	select {
	case r := <-p.ch:
		return r, nil
	case <-p.c.done:
		// Drain a response that raced with the shutdown.
		select {
		case r := <-p.ch:
			return r, nil
		default:
		}
		p.c.mu.Lock()
		err := p.c.err
		p.c.mu.Unlock()
		if err == nil {
			err = io.ErrClosedPipe
		}
		return Response{}, err
	}
}

// Do sends r and waits for its response: Start + Flush + Wait.
func (c *Client) Do(r Request) (Response, error) {
	p, err := c.Start(r)
	if err != nil {
		return Response{}, err
	}
	if err := c.Flush(); err != nil {
		return Response{}, err
	}
	return p.Wait()
}

// Close tears the connection down; in-flight Waits fail.
func (c *Client) Close() error {
	err := c.closeConn()
	<-c.done
	return err
}

// closeConn closes the connection once and reports that close's result
// ever after.
func (c *Client) closeConn() error {
	c.closeOnce.Do(func() { c.closeErr = c.conn.Close() })
	return c.closeErr
}

// fail records the first error and wakes every waiter: closing the
// connection ends the read loop, which closes done. Caller holds mu.
func (c *Client) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	_ = c.closeConn() // err is the failure; what Close says adds nothing
}

// abort is fail for the read loop, which does not hold mu.
func (c *Client) abort(err error) {
	c.mu.Lock()
	c.fail(err)
	c.mu.Unlock()
}

func (c *Client) readLoop() {
	defer close(c.done)
	// One read(2) fills the buffer with every response the server has
	// written so far, instead of two per frame (header, then body).
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var scratch []byte
	var keys []uint64
	for {
		payload, ns, err := ReadFrame(br, scratch)
		scratch = ns
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			c.abort(err)
			return
		}
		resp, err := ParseResponse(payload, keys[:0])
		if err != nil {
			c.abort(err)
			return
		}
		// The response escapes to a waiter; detach it from the scratch
		// buffers before the next frame overwrites them.
		if len(resp.Keys) > 0 {
			resp.Keys = append([]uint64(nil), resp.Keys...)
		}
		if len(resp.Blob) > 0 {
			resp.Blob = append([]byte(nil), resp.Blob...)
		}
		if resp.Payload != nil {
			resp.Payload = append([]byte{}, resp.Payload...)
		}
		if resp.Payloads != nil {
			for i, v := range resp.Payloads {
				resp.Payloads[i] = append([]byte{}, v...)
			}
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if !ok {
			c.abort(fmt.Errorf("%w: response for unknown request id %d", ErrProto, resp.ID))
			return
		}
		ch <- resp
	}
}
