// Command zmsqload is the open-loop load generator for zmsqd: it offers a
// Poisson arrival stream at each target QPS in a sweep, spread over N
// client connections, and reports open-loop latency percentiles —
// measured from each request's *scheduled* arrival, so a server that
// falls behind shows the queueing delay a real client would see instead
// of silently throttling the offered load (the coordinated-omission trap
// of closed-loop benchmarks). See internal/loadgen for the model and
// EXPERIMENTS.md for how to read a p99-vs-QPS curve.
//
//	go run ./cmd/zmsqd -addr :8219 -tenants alpha,beta &
//	go run ./cmd/zmsqload -addr :8219 -tenants alpha,beta -qps 10000,50000 -ops 100000
//
// With -out the per-QPS results are written as JSON; with -maxp99 the
// run exits non-zero when any sweep point's p99 exceeds the bound, and it
// always exits non-zero on protocol or transport errors — that is what
// the CI service smoke asserts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/loadgen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: exit 0 = every sweep point ran clean, 1 = an error,
// a payload mismatch or a p99 over -maxp99, 2 = bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zmsqload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:8219", "zmsqd address to load")
		tenants = fs.String("tenants", "default", "comma-separated tenant names to spread requests over")
		clients = fs.Int("clients", 4, "concurrent connections (each an independent Poisson stream)")
		qps     = fs.String("qps", "20000", "comma-separated target-QPS sweep")
		ops     = fs.Int("ops", 20000, "requests per sweep point")
		mix     = fs.Int("mix", 70, "insert percentage of the request mix (rest are extracts)")
		seed    = fs.Uint64("seed", 1, "arrival-schedule and key RNG seed")
		valueB  = fs.Int("valuebytes", 0, "attach a deterministic key-derived payload of this many bytes to every insert (0 = key-only)")
		verify  = fs.Bool("verify", false, "check every extracted payload byte-exact against the key-derived generator; mismatches fail the run")
		outPath = fs.String("out", "", "write the sweep results as JSON here")
		maxP99  = fs.Float64("maxp99", 0, "exit non-zero when any point's p99 exceeds this many ms (0 = no bound)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "zmsqload: unexpected argument %q (every setting is a flag)\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	names := strings.Split(*tenants, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	var sweep []int
	for _, s := range strings.Split(*qps, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			fmt.Fprintf(stderr, "zmsqload: bad -qps entry %q\n", s)
			return 2
		}
		sweep = append(sweep, v)
	}

	var results []loadgen.Result
	failed := false
	for _, target := range sweep {
		res, err := loadgen.Run(loadgen.Config{
			Addr: *addr, Tenants: names, Clients: *clients,
			TargetQPS: target, Ops: *ops, InsertPct: *mix, Seed: *seed,
			ValueBytes: *valueB, VerifyValues: *verify,
		})
		if err != nil {
			fmt.Fprintln(stderr, "zmsqload:", err)
			return 1
		}
		results = append(results, res)
		fmt.Fprintf(stdout, "zmsqload: qps=%d achieved=%.0f ok=%d empty=%d overloaded=%d errors=%d p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			target, res.AchievedQPS, res.OK, res.Empty, res.Overloaded, res.Errors,
			res.P50Millis, res.P95Millis, res.P99Millis, res.MaxMillis)
		if res.Errors > 0 {
			fmt.Fprintf(stderr, "zmsqload: qps=%d had %d protocol/transport errors\n", target, res.Errors)
			failed = true
		}
		if *verify {
			fmt.Fprintf(stdout, "zmsqload: qps=%d verified=%d mismatched=%d payloads byte-exact\n", target, res.Verified, res.Mismatched)
			if res.Mismatched > 0 {
				fmt.Fprintf(stderr, "zmsqload: qps=%d had %d payload mismatches\n", target, res.Mismatched)
				failed = true
			}
		}
		if *maxP99 > 0 && res.P99Millis > *maxP99 {
			fmt.Fprintf(stderr, "zmsqload: qps=%d p99 %.2fms exceeds bound %.2fms\n", target, res.P99Millis, *maxP99)
			failed = true
		}
	}

	if *outPath != "" {
		doc := struct {
			Tool    string           `json:"tool"`
			Results []loadgen.Result `json:"results"`
		}{Tool: "zmsqload", Results: results}
		if err := experiment.WriteJSON(*outPath, doc); err != nil {
			fmt.Fprintln(stderr, "zmsqload:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}
