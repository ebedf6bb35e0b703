// Package stats keeps one name for the frozen bench module; statistics
// live in internal/metrics.
package stats

import "repro/internal/metrics"

// Percentile is metrics.Percentile.
//
// Deprecated: use metrics.Percentile.
func Percentile(xs []float64, p float64) float64 { return metrics.Percentile(xs, p) }
