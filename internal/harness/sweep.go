package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// This file provides the sweep/record layer the cmd tools share: experiment
// results flattened to rows, written either as aligned text or CSV so runs
// can be diffed and plotted without re-running.

// Row is one experiment cell flattened to (labels, metrics).
type Row struct {
	Experiment string
	Queue      string
	Labels     map[string]string  // e.g. threads=8, mix=50
	Metrics    map[string]float64 // e.g. Mops/s, hit%, ns/handoff
}

// labelOrder and metricOrder pin column order for deterministic output.
var labelOrder = []string{"threads", "mix", "keys", "batch", "shards", "producers", "consumers", "extracts", "size", "mode", "op", "crash", "valueBytes", "qps", "clients", "tenants"}

var metricOrder = []string{"Mops/s", "failedExtract", "hit%", "failures", "rankErrMean", "rankErrP99", "rankErrMax", "ns/handoff", "meanLatNs", "cpuSec", "allocs/op", "pass", "atRisk", "opsPerSync", "p99ms", "p50ms", "achievedQPS", "batchP50", "setMean", "setStddev", "setMin", "setMax", "leafLevel", "helperMoves"}

// Recorder accumulates rows for one run and renders them.
type Recorder struct {
	rows []Row
}

// Add appends a row.
func (r *Recorder) Add(row Row) { r.rows = append(r.rows, row) }

// WriteCSV emits all rows with a unified header: experiment, queue, every
// label column in labelOrder that appears, then every metric column in
// first-seen order.
func (r *Recorder) WriteCSV(w io.Writer) error {
	labelCols := []string{}
	seenLabel := map[string]bool{}
	for _, name := range labelOrder {
		for _, row := range r.rows {
			if _, ok := row.Labels[name]; ok && !seenLabel[name] {
				labelCols = append(labelCols, name)
				seenLabel[name] = true
				break
			}
		}
	}
	metricCols := []string{}
	seenMetric := map[string]bool{}
	for _, row := range r.rows {
		for _, name := range metricOrder {
			if _, ok := row.Metrics[name]; ok && !seenMetric[name] {
				metricCols = append(metricCols, name)
				seenMetric[name] = true
			}
		}
	}

	cw := csv.NewWriter(w)
	header := append([]string{"experiment", "queue"}, labelCols...)
	header = append(header, metricCols...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range r.rows {
		rec := []string{row.Experiment, row.Queue}
		for _, c := range labelCols {
			rec = append(rec, row.Labels[c])
		}
		for _, c := range metricCols {
			if v, ok := row.Metrics[c]; ok {
				rec = append(rec, strconv.FormatFloat(v, 'f', -1, 64))
			} else {
				rec = append(rec, "")
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteText emits one aligned line per row.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, row := range r.rows {
		if _, err := fmt.Fprintf(w, "%-10s %-16s", row.Experiment, row.Queue); err != nil {
			return err
		}
		for _, name := range labelOrder {
			if v, ok := row.Labels[name]; ok {
				if _, err := fmt.Fprintf(w, " %s=%-8s", name, v); err != nil {
					return err
				}
			}
		}
		for _, name := range metricOrder {
			if v, ok := row.Metrics[name]; ok {
				if _, err := fmt.Fprintf(w, " %s=%.3f", name, v); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
