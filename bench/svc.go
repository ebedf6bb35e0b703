package main

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xrand"
)

const (
	window     = 16 // requests in flight per connection
	svcTenants = 2
)

func tenantName(i int) string { return fmt.Sprintf("t%d", i%svcTenants) }

// svcWorker is one connection of svc-pipe: a closed loop that starts a
// window of requests, flushes, and waits for all of them.
type svcWorker struct {
	worker
	c      *wire.Client
	tenant string
	pend   [window]*wire.Pending
	keys   [window]uint64
	isIns  [window]bool
	t0     [window]int64
	_      [64]byte
}

// windows performs requests/window windows of the 50/50 mix and checks
// every response.
func (w *svcWorker) windows(requests int) {
	for n := 0; n < requests/window; n++ {
		w.rec.open(spWindow)
		sent := 0
		for i := 0; i < window; i++ {
			req := w.next(i)
			w.t0[i] = now()
			p, err := w.c.Start(req)
			w.rec.mark(spWireStart, w.t0[i], now())
			if err != nil {
				w.failed++
				w.pend[i] = nil
				continue
			}
			w.pend[i] = p
			sent++
		}
		tf := now()
		if err := w.c.Flush(); err != nil {
			w.failed += int64(sent)
			w.rec.close()
			continue
		}
		tw := now()
		w.rec.mark(spWireFlush, tf, tw)
		for i := 0; i < window; i++ {
			if w.pend[i] == nil {
				continue
			}
			resp, err := w.pend[i].Wait()
			t1 := now()
			w.rec.mark(spWireWait, tw, t1)
			tw = t1
			w.rec.lat = append(w.rec.lat, t1-w.t0[i])
			w.check(i, resp, err)
		}
		w.rec.close()
	}
}

// next draws the worker's next request into slot i.
func (w *svcWorker) next(i int) wire.Request {
	k, isInsert := key48(w.rng.Uint64())
	w.keys[i], w.isIns[i] = k, isInsert
	if isInsert {
		return wire.Request{Op: wire.OpInsert, Tenant: w.tenant, Key: k, Payload: loadgen.ValueFor(k, valueLen)}
	}
	return wire.Request{Op: wire.OpExtractMax, Tenant: w.tenant}
}

// check judges one response. The live set is tens of thousands deep, so
// Empty is a failure like any status other than OK.
func (w *svcWorker) check(i int, resp wire.Response, err error) {
	switch {
	case err != nil || resp.Status != wire.StatusOK:
		w.failed++
	case w.isIns[i]:
		w.led.in.add(w.keys[i])
	default:
		if !checkValue(resp.Value, resp.Payload) {
			w.failed++
		}
		w.led.out.add(resp.Value)
	}
}

// service is svc-pipe's instance: an in-process zmsqd core serving
// loopback TCP, with one wire.Client per worker.
type service struct {
	crew
	srv      *server.Server
	addr     string
	serveErr chan error
	ws       []svcWorker
	prefill  tally
}

func newService(c *runConfig, inst int) (instance, error) {
	s, err := startService(c.seed, inst, nWorkers)
	if err != nil {
		return nil, err
	}
	if err := s.fill(c.seed, inst, c.sz.live); err != nil {
		s.stop()
		return nil, err
	}
	s.round(c.sz.svcWarm, false)
	return s, nil
}

// startService builds the server with zmsqd's defaults, listens on an
// ephemeral loopback port and dials conns connections.
func startService(seed uint64, inst, conns int) (*service, error) {
	names := make([]string, svcTenants)
	for i := range names {
		names[i] = tenantName(i)
	}
	srv, _, err := server.New(server.Config{Tenants: names, Queue: zmsqdQueue()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, addr: ln.Addr().String(), serveErr: make(chan error, 1), ws: make([]svcWorker, conns)}
	go func() { s.serveErr <- srv.Serve(ln) }()
	for i := range s.ws {
		w := &s.ws[i]
		w.tenant = tenantName(i)
		w.rng.Seed(workerSeed(seed, inst, i))
		s.crew = append(s.crew, &w.worker)
		if w.c, err = wire.Dial(s.addr); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// fill inserts live valued elements into every tenant over the wire.
func (s *service) fill(seed uint64, inst, live int) error {
	const per = 512
	rng := xrand.New(workerSeed(seed, inst, -2))
	keys := make([]uint64, per)
	vals := make([][]byte, per)
	for t := 0; t < svcTenants; t++ {
		c := s.ws[t%len(s.ws)].c
		for done := 0; done < live; done += per {
			n := min(per, live-done)
			for i := 0; i < n; i++ {
				keys[i], _ = key48(rng.Uint64())
				vals[i] = loadgen.ValueFor(keys[i], valueLen)
				s.prefill.add(keys[i])
			}
			resp, err := c.Do(wire.Request{Op: wire.OpInsertBatch, Tenant: tenantName(t), Keys: keys[:n], Payloads: vals[:n]})
			if err != nil {
				return err
			}
			if resp.Status != wire.StatusOK {
				return fmt.Errorf("prefill: status %d", resp.Status)
			}
		}
	}
	return nil
}

func (s *service) round(requests int64, trace bool) roundStat {
	for i := range s.ws {
		n := int(requests)
		s.ws[i].rec.reset(trace, 1, 2*n+n/window, n/window)
	}
	wall, cpu := runWorkers(len(s.ws), requests, func(id, n int) { s.ws[id].windows(n) })
	return s.stat(requests, wall, cpu)
}

// stop closes the connections, shuts the server down and waits for Serve
// to return.
func (s *service) stop() error {
	for i := range s.ws {
		if s.ws[i].c != nil {
			s.ws[i].c.Close()
		}
	}
	err := s.srv.Shutdown()
	return errors.Join(err, <-s.serveErr)
}

// finish drains every tenant over the wire, checks conservation and the
// server's own error counters, then shuts down.
func (s *service) finish() (attempted, failed int64, err error) {
	in, out, attempted, failed := s.totals()
	in.merge(s.prefill)
	attempted += int64(s.prefill.n)
	c := s.ws[0].c
	for t := 0; t < svcTenants; t++ {
		for out.n <= in.n {
			resp, derr := c.Do(wire.Request{Op: wire.OpExtractBatch, Tenant: tenantName(t), N: 1024})
			if derr != nil {
				s.stop()
				return attempted, failed, fmt.Errorf("drain: %w", derr)
			}
			if resp.Status == wire.StatusEmpty {
				break
			}
			if resp.Status != wire.StatusOK || len(resp.Payloads) != len(resp.Keys) {
				failed++
				break
			}
			for i, k := range resp.Keys {
				if !checkValue(k, resp.Payloads[i]) {
					failed++
				}
				out.add(k)
			}
		}
	}
	st := s.srv.StatsSnapshot()
	failed += int64(st.Overloads + st.ProtoErrors)
	if serr := s.stop(); serr != nil {
		return attempted, failed, fmt.Errorf("shutdown: %w", serr)
	}
	return attempted, failed, conserved(in, out)
}

// svcRank is svc-pipe's rank-error pass: one connection to tenant 0,
// windows of 16, with the mirror updated in request order — which is the
// order a connection's requests execute in.
func svcRank(seed uint64, live, warm, ops int) (rankResult, error) {
	s, err := startService(seed, -1, 1)
	if err != nil {
		return rankResult{}, err
	}
	defer s.stop()
	if err := s.fill(seed, -1, live); err != nil {
		return rankResult{}, err
	}
	r := newRanker(seed, ops)
	// Replay the prefill's tenant-0 keys into the mirror.
	rng := xrand.New(workerSeed(seed, -1, -2))
	for range live {
		k, _ := key48(rng.Uint64())
		r.inserted(k)
	}
	w := &s.ws[0]
	for n := 0; n < (warm+ops)/window; n++ {
		r.recording = n*window >= warm
		for i := 0; i < window; i++ {
			if w.pend[i], err = w.c.Start(w.next(i)); err != nil {
				return rankResult{}, err
			}
		}
		if err := w.c.Flush(); err != nil {
			return rankResult{}, err
		}
		for i := 0; i < window; i++ {
			resp, err := w.pend[i].Wait()
			switch {
			case err != nil:
				return rankResult{}, err
			case resp.Status != wire.StatusOK:
				r.misses++
			case w.isIns[i]:
				r.inserted(w.keys[i])
			default:
				r.extracted(resp.Value)
			}
		}
	}
	return r.result(), nil
}
