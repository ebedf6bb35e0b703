package harness

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func sampleRecorder() *Recorder {
	var r Recorder
	r.Add(Row{Experiment: "fig5a", Queue: "zmsq",
		Labels:  map[string]string{"threads": "4", "mix": "100", "keys": "uniform20"},
		Metrics: map[string]float64{"Mops/s": 0.001, "failedExtract": 0}})
	r.Add(Row{Experiment: "table1a", Queue: "spraylist",
		Labels:  map[string]string{"size": "1024", "extracts": "102"},
		Metrics: map[string]float64{"hit%": 50, "failures": 0}})
	r.Add(Row{Experiment: "fig4", Queue: "zmsq",
		Labels:  map[string]string{"mode": "block", "producers": "4", "consumers": "8"},
		Metrics: map[string]float64{"ns/handoff": 10000, "meanLatNs": 1000, "cpuSec": 0.5}})
	return &r
}

func TestRecorderCSV(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 { // header + 3 rows
		t.Fatalf("got %d records", len(records))
	}
	header := records[0]
	if header[0] != "experiment" || header[1] != "queue" {
		t.Fatalf("header = %v", header)
	}
	// Every data row must have exactly the header's arity (csv.Reader
	// enforces this, but make the intent explicit).
	for i, rec := range records[1:] {
		if len(rec) != len(header) {
			t.Fatalf("row %d arity %d != header %d", i, len(rec), len(header))
		}
	}
	// Spot-check: the throughput row carries 1 Mops/s = 0.001.
	joined := strings.Join(records[1], ",")
	if !strings.Contains(joined, "fig5a") || !strings.Contains(joined, "zmsq") {
		t.Fatalf("throughput row wrong: %v", records[1])
	}
}

func TestRecorderText(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig5a", "table1a", "fig4", "zmsq", "spraylist", "threads=4", "mode=block"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got != 3 {
		t.Fatalf("got %d lines, want 3", got)
	}
}

func TestRecorderRows(t *testing.T) {
	r := sampleRecorder()
	if len(r.rows) != 3 {
		t.Fatalf("rows = %d", len(r.rows))
	}
}
