package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// spanName indexes spanTable. Spans are recorded by the benchmark around
// its own calls into a layer's public functions; nothing inside the
// layers is instrumented.
type spanName uint8

const (
	spWorker spanName = iota
	spCoreInsert
	spCoreExtract
	spShardedInsert
	spShardedExtract
	spGroup
	spShardedInsertBatch
	spShardedExtractBatch
	spShardedSync
	spWindow
	spWireStart
	spWireFlush
	spWireWait
)

// spanTable gives each span its layer, the function called and the
// logical operation it is part of.
var spanTable = [...]struct{ layer, fn, op string }{
	spWorker:              {"bench", "chunk", "chunk"},
	spCoreInsert:          {"core", "Insert", "insert"},
	spCoreExtract:         {"core", "TryExtractMax", "extract"},
	spShardedInsert:       {"sharded", "Insert", "insert"},
	spShardedExtract:      {"sharded", "TryExtractMax", "extract"},
	spGroup:               {"bench", "group", "group"},
	spShardedInsertBatch:  {"sharded", "InsertBatch", "insert"},
	spShardedExtractBatch: {"sharded", "ExtractBatch", "extract"},
	spShardedSync:         {"wal", "SyncWAL", "sync"},
	spWindow:              {"bench", "window", "window"},
	spWireStart:           {"wire", "Client.Start", "request"},
	spWireFlush:           {"wire", "Client.Flush", "request"},
	spWireWait:            {"server", "Pending.Wait", "request"},
}

func (n spanName) String() string { return spanTable[n].layer + "." + spanTable[n].fn }

// span is one timed interval on one worker. parent indexes the same
// worker's span slice (-1: child of the round).
type span struct {
	name       spanName
	parent     int32
	start, end int64 // ns since epoch
}

// recorder is one worker's measurement state for one round. Untraced, it
// keeps the duration of one call in sampleEvery; traced, it keeps a span
// for every call. Its buffers are sized before the round starts so that
// recording does not allocate inside it.
type recorder struct {
	trace  bool
	mask   int // sample when calls&mask == 0
	calls  int
	lat    []int64
	spans  []span
	parent int32
}

// sampleEvery is the untraced sampling stride of single-operation loops.
const sampleEvery = 8

// reset prepares the recorder for a round in which this worker makes at
// most maxCalls timed calls under at most maxParents parent spans.
func (r *recorder) reset(trace bool, stride, maxCalls, maxParents int) {
	r.trace, r.calls, r.parent = trace, 0, -1
	r.mask = stride - 1
	if trace {
		r.mask = 0
	}
	need := maxCalls/(r.mask+1) + 1
	if cap(r.lat) < need {
		r.lat = make([]int64, 0, need)
	}
	r.lat = r.lat[:0]
	r.spans = r.spans[:0]
	if trace && cap(r.spans) < maxCalls+maxParents+1 {
		r.spans = make([]span, 0, maxCalls+maxParents+1)
	}
}

// sampled reports whether the next call is timed.
func (r *recorder) sampled() bool {
	r.calls++
	return r.calls&r.mask == 0
}

// done records a call that started at t0 and has just returned.
func (r *recorder) done(name spanName, t0 int64) {
	t1 := now()
	r.lat = append(r.lat, t1-t0)
	if r.trace {
		r.spans = append(r.spans, span{name, r.parent, t0, t1})
	}
}

// mark records a child span from t0 to t1 on traced rounds.
func (r *recorder) mark(name spanName, t0, t1 int64) {
	if r.trace {
		r.spans = append(r.spans, span{name, r.parent, t0, t1})
	}
}

// open starts a parent span (traced rounds only) and makes it current.
func (r *recorder) open(name spanName) {
	if r.trace {
		r.spans = append(r.spans, span{name, -1, now(), 0})
		r.parent = int32(len(r.spans) - 1)
	}
}

// close ends the current parent span.
func (r *recorder) close() {
	if r.trace {
		r.spans[r.parent].end = now()
		r.parent = -1
	}
}

// latencies merges the workers' samples of one round, sorted.
func latencies(recs []*recorder) []int64 {
	n := 0
	for _, r := range recs {
		n += len(r.lat)
	}
	all := make([]int64, 0, n)
	for _, r := range recs {
		all = append(all, r.lat...)
	}
	slices.Sort(all)
	return all
}

// spanSummary aggregates one span name over a traced round.
type spanSummary struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalMs  float64 `json:"total_ms"`
	SelfMs   float64 `json:"self_ms"` // total minus the part child spans cover
	P50Ns    float64 `json:"p50_ns"`
	P99Ns    float64 `json:"p99_ns"`
	StallPct float64 `json:"stall_pct"` // share of total inside calls over stallNs
}

// stallNs is the call duration beyond which a call counts as a stall.
const stallNs = 200_000

// summarize folds the workers' spans of one round by name.
func summarize(recs []*recorder) []spanSummary {
	type acc struct {
		durs               []int64
		total, self, stall int64
	}
	byName := map[spanName]*acc{}
	get := func(n spanName) *acc {
		a := byName[n]
		if a == nil {
			a = &acc{}
			byName[n] = a
		}
		return a
	}
	for _, r := range recs {
		for _, s := range r.spans {
			d := s.end - s.start
			a := get(s.name)
			a.durs = append(a.durs, d)
			a.total += d
			a.self += d
			if d > stallNs {
				a.stall += d
			}
			if s.parent >= 0 {
				get(r.spans[s.parent].name).self -= d
			}
		}
	}
	var out []spanSummary
	for n, a := range byName {
		slices.Sort(a.durs)
		out = append(out, spanSummary{
			Name: n.String(), Count: len(a.durs),
			TotalMs: float64(a.total) / 1e6, SelfMs: float64(a.self) / 1e6,
			P50Ns: percentile(a.durs, 0.50), P99Ns: percentile(a.durs, 0.99),
			StallPct: 100 * float64(a.stall) / float64(max(a.total, 1)),
		})
	}
	slices.SortFunc(out, func(a, b spanSummary) int { return int(b.TotalMs*1e6) - int(a.TotalMs*1e6) })
	return out
}

func printSummary(w io.Writer, sums []spanSummary) {
	fmt.Fprintf(w, "  %-28s %9s %11s %11s %9s %9s %7s\n", "span", "count", "total_ms", "self_ms", "p50_ns", "p99_ns", "stall%")
	for _, s := range sums {
		fmt.Fprintf(w, "  %-28s %9d %11.2f %11.2f %9.0f %9.0f %7.2f\n", s.Name, s.Count, s.TotalMs, s.SelfMs, s.P50Ns, s.P99Ns, s.StallPct)
	}
}

// maxFileSpans caps how many spans per worker the trace file keeps; the
// summary in the same file always covers every span of the round.
const maxFileSpans = 50_000

// writeTrace writes the last traced round of a workload: the span summary
// and, per worker, the first maxFileSpans spans as
// {name, start, end, parent, op} with parent an index into that worker's
// list (-1 for none).
func writeTrace(dir, workload string, env map[string]any, recs []*recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	head, err := json.Marshal(map[string]any{"workload": workload, "environment": env, "summary": summarize(recs)})
	if err != nil {
		return "", err
	}
	// Splice the workers array into the header object.
	bw.Write(head[:len(head)-1])
	bw.WriteString(`,"workers":[`)
	for wi, r := range recs {
		if wi > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('[')
		for i, s := range r.spans[:min(len(r.spans), maxFileSpans)] {
			if i > 0 {
				bw.WriteByte(',')
			}
			parent := s.parent
			if int(parent) >= maxFileSpans {
				parent = -1
			}
			fmt.Fprintf(bw, `{"name":%q,"start":%d,"end":%d,"parent":%d,"op":%q}`, s.name.String(), s.start, s.end, parent, spanTable[s.name].op)
		}
		bw.WriteByte(']')
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
