package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// daemon is one in-process zmsqd: run on its own goroutine, its stdout read
// line by line by the test.
type daemon struct {
	t      *testing.T
	cancel context.CancelCauseFunc
	out    *bufio.Scanner
	lines  []string
	stderr bytes.Buffer
	exit   chan int
}

func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancelCause(context.Background())
	pr, pw := io.Pipe()
	d := &daemon{t: t, cancel: cancel, out: bufio.NewScanner(pr), exit: make(chan int, 1)}
	go func() {
		d.exit <- run(ctx, args, pw, &d.stderr)
		_ = pw.Close()
	}()
	t.Cleanup(func() { cancel(nil); _, _ = io.Copy(io.Discard, pr) })
	return d
}

// await reads stdout up to the first line matching re and returns its
// first submatch.
func (d *daemon) await(re string) string {
	d.t.Helper()
	rx := regexp.MustCompile(re)
	for d.out.Scan() {
		d.lines = append(d.lines, d.out.Text())
		if m := rx.FindStringSubmatch(d.out.Text()); m != nil {
			return m[1]
		}
	}
	d.t.Fatalf("zmsqd exited before printing %q\nstdout:\n%s\nstderr:\n%s", re, strings.Join(d.lines, "\n"), &d.stderr)
	return ""
}

// stop cancels the daemon, requires a clean exit and returns everything it
// printed.
func (d *daemon) stop() string {
	d.t.Helper()
	d.cancel(errors.New("test over"))
	for d.out.Scan() {
		d.lines = append(d.lines, d.out.Text())
	}
	out := strings.Join(d.lines, "\n")
	if code := <-d.exit; code != 0 || d.stderr.Len() != 0 {
		d.t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, &d.stderr)
	}
	return out
}

func get(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d (want %d), read error %v", url, resp.StatusCode, wantStatus, err)
	}
	return string(body)
}

// series returns the value of the un-labelled sample called name.
func series(t *testing.T, body, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("no %s sample in:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

// TestServeScrapeDrainRecover is the front door end to end: a durable
// two-tenant zmsqd takes traffic over the wire, answers the operator's
// questions from the scrape, drains on cancellation, and a second start on
// the same directory recovers what the first one held.
func TestServeScrapeDrainRecover(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-metricsaddr", "127.0.0.1:0", "-tenants", "alpha,beta", "-wal", t.TempDir()}
	d := start(t, args...)
	base := d.await(`metrics on (http://\S+)/metrics$`)
	addr := d.await(`serving 2 tenants \[alpha beta\] on (\S+) `)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	do := func(req wire.Request) {
		t.Helper()
		if r, err := c.Do(req); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("%+v: %+v %v", req, r, err)
		}
	}
	for i := uint64(1); i <= 400; i++ {
		do(wire.Request{Op: wire.OpInsert, Tenant: "alpha", Key: i, Payload: []byte("v")})
		do(wire.Request{Op: wire.OpInsert, Tenant: "beta", Key: i})
	}
	for i := 0; i < 100; i++ {
		do(wire.Request{Op: wire.OpExtractMax, Tenant: "alpha"})
	}

	// The log syncs on its own clock (group commit); wait for the first.
	var alpha string
	for i := 0; ; i++ {
		alpha = get(t, base+"/metrics?tenant=alpha", http.StatusOK)
		if series(t, alpha, "zmsq_wal_syncs_total") > 0 {
			break
		}
		if i > 2000 {
			t.Fatal("alpha's log never synced")
		}
		time.Sleep(time.Millisecond)
	}
	if got := series(t, alpha, "zmsq_insert_regular_total"); got <= 0 {
		t.Errorf("zmsq_insert_regular_total = %v", got)
	}
	if got := series(t, alpha, "zmsq_rank_error_sample_count"); got <= 0 {
		t.Errorf("zmsq_rank_error_sample_count = %v after 100 extractions", got)
	}
	if got := series(t, alpha, "zmsq_sharded_shards"); got != 4 {
		t.Errorf("zmsq_sharded_shards = %v, want 4", got)
	}
	if got := series(t, alpha, "zmsq_wal_ops_total"); got != 500 {
		t.Errorf("zmsq_wal_ops_total = %v, want 500", got)
	}
	get(t, base+"/metrics?tenant=nope", http.StatusNotFound)
	var tree struct {
		Server  struct{ Ops uint64 }
		Tenants map[string]json.RawMessage
	}
	if err := json.Unmarshal([]byte(get(t, base+"/metrics.json", http.StatusOK)), &tree); err != nil {
		t.Fatalf("/metrics.json did not decode: %v", err)
	}
	if tree.Server.Ops != 900 || len(tree.Tenants) != 2 {
		t.Errorf("/metrics.json: %d ops, %d tenants; want 900, 2", tree.Server.Ops, len(tree.Tenants))
	}
	ops := series(t, get(t, base+"/metrics", http.StatusOK), "zmsqd_ops_total")

	out := d.stop()
	for _, want := range []string{
		"test over — draining",
		fmt.Sprintf(" 1 conns, %.0f ops (800 inserts, 100 extracts), 0 overload refusals, 0 proto errors", ops),
		`tenant "alpha" final len 300`,
		`tenant "beta" final len 400`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("drain log lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " recovered ") {
		t.Errorf("a first start on an empty directory reported a recovery:\n%s", out)
	}

	d = start(t, args...)
	d.await(`(serving) 2 tenants`)
	out = d.stop()
	for _, want := range []string{`tenant "alpha" recovered 300 live keys`, `tenant "beta" recovered 400 live keys`} {
		if !strings.Contains(out, want) {
			t.Errorf("restart log lacks %q:\n%s", want, out)
		}
	}
}

// TestListenFailureClosesLogs: a start that cannot bind must still go
// through Shutdown — no group-commit goroutine survives it — and exit 1.
func TestListenFailureClosesLogs(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	before := runtime.NumGoroutine()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-addr", taken.Addr().String(), "-wal", t.TempDir()}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "address already in use") {
		t.Fatalf("exit %d, want 1 and a bind error\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i > 2000 {
			t.Fatalf("%d goroutines still running, %d before the failed start", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
