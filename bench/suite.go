package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
)

// endToEndNames and perLayerNames fix the metric sets and their printing
// order; BENCHMARK.json lists the same names (bench_test.go compares).
var endToEndNames = []string{
	"setup_s", "ops_per_s", "lat_p50_us", "lat_p99_us", "cpu_us_per_op", "peak_rss_mb", "rank_err_mean", "rank_err_p99",
}

var perLayerNames = []string{
	"pq.heap_ns_per_op", "core.steady_ns_per_op", "sharded.steady_ns_per_op", "sharded.self_ns_per_op",
	"wal.append_self_ns_per_op", "wire.codec_ns_per_op", "server.pipe_ns_per_op", "server.self_ns_per_op",
	"pq.rank_err_mean", "core.rank_err_mean", "sharded.rank_err_mean",
	"core.insert_ns_p50", "core.insert_ns_p99", "core.insert_ns_p999",
	"core.extract_ns_p50", "core.extract_ns_p99", "core.extract_ns_p999",
	"core.stall_share_pct", "core.fill_ns_per_op", "core.drain_ns_per_op",
	"core.trylock_fail_per_kop", "core.insert_retries_per_kop", "core.insert_forced_pct", "core.pool_hit_pct",
	"core.pool_refills_per_kop", "core.swapdown_moves_per_kop", "core.hazard_scans_per_kop", "core.node_cache_hit_pct",
	"core.leaf_level", "core.allocs_per_op", "core.gc_cycles_per_mop",
	"sharded.full_sweeps_per_kop", "sharded.steals_per_kop", "sharded.imbalance_max_over_mean", "sharded.active_shards",
	"wal.sync_call_us_p50", "wal.sync_call_us_p99", "wal.ops_per_fsync", "wal.bytes_per_op", "wal.snapshots",
	"wal.snapshot_bytes_per_op", "wal.recover_ms", "wal.recover_keys_per_s",
	"wire.encode_req_ns", "wire.decode_req_ns", "wire.encode_resp_ns", "wire.decode_resp_ns", "wire.allocs_per_op", "wire.bytes_per_req",
	"server.rtt_w1_us_p50", "server.rtt_w1_us_p99", "server.coalesce_batch_mean", "server.overload_pct", "server.proto_errors",
	"server.open10k_us_p50", "server.open10k_us_p99", "server.gen_late_us_p50",
	"trace.overhead_pct",
}

// runSuite runs every workload in a process of its own (so that
// peak_rss_mb belongs to one workload), n times over with seeds seed,
// seed+1, …, and prints either each run's tables or, for -aa, the noise
// table over the n runs.
func runSuite(c *runConfig, n int, aa, trace bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	names := endToEndNames
	if trace {
		names = perLayerNames
	}
	// values[workload][metric] holds one value per run.
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	status := 0
	for i := range n {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(c.seed + uint64(i)), "-seconds", fmt.Sprint(c.seconds), "-scale", c.scale}
			if trace {
				args = append(args, "-trace", "1")
			}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &out, stderr
			runErr := cmd.Run()
			text := strings.TrimRight(out.String(), "\n")
			last := text[strings.LastIndexByte(text, '\n')+1:]
			if aa {
				// The host-speed lines say whether a slow run met a slow host.
				for _, line := range strings.Split(text, "\n") {
					if strings.Contains(line, "host speed") {
						fmt.Fprintln(stderr, line)
					}
				}
				fmt.Fprintf(stderr, "run %d/%d %s: %s\n", i+1, n, w.name, last)
			} else {
				fmt.Fprintf(stdout, "%s\n\n", text)
			}
			var rep report
			if runErr != nil || json.Unmarshal([]byte(last), &rep) != nil {
				fmt.Fprintf(stderr, "bench: %s (seed %d) failed: %v\n", w.name, c.seed+uint64(i), runErr)
				status = 1
				continue
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range rep.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
				units[name] = m.Unit
			}
		}
	}
	if aa {
		printEnvironment(stdout, environment(c))
		printNoise(stdout, names, units, values)
	}
	return status
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		frac := pos - float64(int(pos))
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// printNoise prints, per workload and metric, the medians of the
// alternate runs (A: 1st, 3rd, …; B: 2nd, 4th, …), their difference, each
// set's quartiles, and the interquartile spread of all runs as a share of
// their median.
func printNoise(w io.Writer, names []string, units map[string]string, values map[string]map[string][]float64) {
	pct := func(x, base float64) float64 {
		if base == 0 {
			return 0
		}
		return 100 * x / base
	}
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n### %s\n\n", wl.name)
		fmt.Fprintf(w, "| metric | unit | median A | median B | B−A %% | A q1..q3 | B q1..q3 | IQR/median %% (all runs) |\n|---|---|---|---|---|---|---|---|\n")
		for _, name := range names {
			v := values[wl.name][name]
			if len(v) == 0 {
				continue
			}
			var a, b []float64
			for i, x := range v {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			if len(b) == 0 {
				b = a
			}
			ma, mb := median(a), median(b)
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			q1, q3 := quartiles(v)
			fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %+.2f | %.6g..%.6g | %.6g..%.6g | %.2f |\n",
				name, units[name], ma, mb, pct(mb-ma, ma), aq1, aq3, bq1, bq3, pct(q3-q1, median(v)))
		}
	}
}
