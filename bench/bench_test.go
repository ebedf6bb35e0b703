package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/pq"
)

func smokeConfig(t *testing.T, seed uint64) *runConfig {
	t.Helper()
	return &runConfig{seed: seed, seconds: 0, scale: "smoke", sz: scales["smoke"], outDir: t.TempDir(), walBase: t.TempDir(), log: io.Discard}
}

// runSmoke runs one workload at smoke scale and returns the report parsed
// back from the line the driver would read.
func runSmoke(t *testing.T, name string, seed uint64, trace bool) report {
	t.Helper()
	var out bytes.Buffer
	if _, err := runOne(smokeConfig(t, seed), name, trace, &out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not a report: %v", name, err)
	}
	return rep
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkReport(t *testing.T, what string, rep report, want []string) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, rep.Correct, rep.Attempted, rep.Failed)
	}
	got := make([]string, 0, len(rep.Metrics))
	for name, m := range rep.Metrics {
		got = append(got, name)
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q is outside the contract's alphabet", what, name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: metric %q has unit %q", what, name, m.Unit)
		}
	}
	wantSorted := slices.Clone(want)
	slices.Sort(wantSorted)
	slices.Sort(got)
	if !slices.Equal(got, wantSorted) {
		t.Errorf("%s: metrics are\n %v\nwant\n %v", what, got, wantSorted)
	}
}

// TestWorkloads runs every workload end to end and traced, and checks
// that rank error is a pure function of the seed.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runSmoke(t, w.name, 7, false)
			checkReport(t, "end-to-end", a, endToEndNames)
			for _, name := range endToEndNames {
				if a.Metrics[name].Value <= 0 {
					t.Errorf("%s is %v; end-to-end metrics must never be 0", name, a.Metrics[name].Value)
				}
			}
			b := runSmoke(t, w.name, 7, false)
			c := runSmoke(t, w.name, 8, false)
			for _, name := range []string{"rank_err_mean", "rank_err_p99"} {
				if a.Metrics[name].Value != b.Metrics[name].Value && !raceEnabled {
					t.Errorf("%s differs between two runs of seed 7: %v vs %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if a.Metrics["rank_err_mean"].Value == c.Metrics["rank_err_mean"].Value {
				t.Errorf("rank_err_mean is %v under seeds 7 and 8 alike", a.Metrics["rank_err_mean"].Value)
			}
			checkReport(t, "traced", runSmoke(t, w.name, 7, true), perLayerNames)
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to what the program prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w := findWorkload(w.Name); w == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", names[len(names)-1])
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the program %d", names, len(workloads))
	}
	list := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := list(spec.EndToEnd); !slices.Equal(got, endToEndNames) {
		t.Errorf("end_to_end is %v, the program prints %v", got, endToEndNames)
	}
	if got := list(spec.PerLayer); !slices.Equal(got, perLayerNames) {
		t.Errorf("per_layer is %v, the program prints %v", got, perLayerNames)
	}
}

// lossyQueue drops every dropEvery'th insert; dupQueue returns every
// dupEvery'th extracted key a second time.
type lossyQueue struct {
	heapQueue
	mu           sync.Mutex
	n, dropEvery int
}

func (q *lossyQueue) Insert(k uint64, v struct{}) {
	q.mu.Lock()
	q.n++
	drop := q.n%q.dropEvery == 0
	q.mu.Unlock()
	if !drop {
		q.heapQueue.Insert(k, v)
	}
}

type dupQueue struct {
	heapQueue
	mu          sync.Mutex
	n, dupEvery int
	again       []uint64
}

func (q *dupQueue) TryExtractMax() (uint64, struct{}, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.again) > 0 {
		k := q.again[0]
		q.again = q.again[1:]
		return k, struct{}{}, true
	}
	k, v, ok := q.heapQueue.TryExtractMax()
	if q.n++; ok && q.n%q.dupEvery == 0 {
		q.again = append(q.again, k)
	}
	return k, v, ok
}

// TestCheckerFlagsBrokenQueues feeds the steady workload's own loop and
// settle check a sound queue, one that loses elements and one that
// duplicates them.
func TestCheckerFlagsBrokenQueues(t *testing.T) {
	sz := scales["smoke"]
	run := func(q queue) (int64, error) {
		m := newMixInstance(q, nil, 3, 0, sz.live, sz.steadyWarm, spShardedInsert, spShardedExtract)
		m.round(sz.steadyRound, false)
		_, failed, err := m.finish()
		return failed, err
	}
	newHeap := func() heapQueue { return heapQueue{pq.NewGlobalHeap(sz.live)} }
	if failed, err := run(newHeap()); failed != 0 || err != nil {
		t.Fatalf("sound queue flagged: failed=%d err=%v", failed, err)
	}
	if _, err := run(&lossyQueue{heapQueue: newHeap(), dropEvery: 1000}); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Errorf("lossy queue not flagged as losing elements: %v", err)
	}
	if _, err := run(&dupQueue{heapQueue: newHeap(), dupEvery: 1000}); err == nil || !strings.Contains(err.Error(), "duplicated") {
		t.Errorf("duplicating queue not flagged as duplicating: %v", err)
	}
}
