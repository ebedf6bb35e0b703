package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/wire"
)

func TestMetricsMuxEndpoints(t *testing.T) {
	s, addr := startServer(t, baseConfig("alpha", "beta"))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(1); i <= 300; i++ {
		if r, err := c.Do(wire.Request{Op: wire.OpInsert, Tenant: "alpha", Key: i}); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("insert %d: %+v %v", i, r, err)
		}
	}
	for i := 0; i < 100; i++ {
		if r, err := c.Do(wire.Request{Op: wire.OpExtractMax, Tenant: "alpha"}); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("extract %d: %+v %v", i, r, err)
		}
	}
	srv := httptest.NewServer(NewMetricsMux(s.View))
	defer srv.Close()

	get := func(path string, wantStatus int) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}
	// has checks the series are there and that no # TYPE line repeats
	// (a repeated one is invalid exposition).
	has := func(path, body string, want ...string) {
		t.Helper()
		for _, w := range want {
			if !strings.Contains(body, w) {
				t.Errorf("%s missing %q", path, w)
			}
		}
		seen := map[string]bool{}
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				if seen[line] {
					t.Errorf("%s repeats %q", path, line)
				}
				seen[line] = true
			}
		}
	}

	server := get("/metrics", http.StatusOK)
	has("/metrics", server, "zmsqd_conns_total 1\n", "zmsqd_ops_total 400\n", "zmsqd_inserts_total 300\n",
		"zmsqd_extracts_total 100\n", "zmsqd_overloads_total 0\n", "zmsqd_proto_errors_total 0\n",
		"# TYPE zmsqd_insert_batch_size histogram", "zmsq_len 200\n", "zmsq_hazard_scans_total")
	if strings.Contains(server, "zmsq_sharded_") {
		t.Error("/metrics carries a tenant's zmsq_sharded_ series")
	}

	alpha := get("/metrics?tenant=alpha", http.StatusOK)
	has("/metrics?tenant=alpha", alpha, "zmsq_extract_pool_hit_total", "zmsq_len 200\n",
		"# TYPE zmsq_rank_error_sample histogram", "zmsq_sharded_shards 2\n")
	if strings.Contains(alpha, "zmsqd_") || strings.Contains(alpha, "zmsq_wal_") {
		t.Error("a volatile tenant's view carries zmsqd_ or zmsq_wal_ series")
	}
	has("/metrics?tenant=beta", get("/metrics?tenant=beta", http.StatusOK), "zmsq_len 0\n")
	get("/metrics?tenant=nope", http.StatusNotFound)

	var sc Scrape
	if err := json.Unmarshal([]byte(get("/metrics.json", http.StatusOK)), &sc); err != nil {
		t.Fatalf("/metrics.json did not decode: %v", err)
	}
	if sc.Server.Inserts != 300 || sc.Queues.InsertsTotal() != 300 || sc.Tenants["alpha"].Queue.Merged.ExtractsTotal() != 100 {
		t.Errorf("/metrics.json: server inserts %d, merged inserts %d, alpha extracts %d; want 300, 300, 100",
			sc.Server.Inserts, sc.Queues.InsertsTotal(), sc.Tenants["alpha"].Queue.Merged.ExtractsTotal())
	}
	if _, ok := sc.Tenants["beta"]; !ok || sc.Tenants["beta"].WAL != nil {
		t.Errorf("/metrics.json: beta = %+v, want a volatile tenant entry", sc.Tenants["beta"])
	}

	if idx := get("/debug/pprof/", http.StatusOK); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index looks wrong")
	}
}
