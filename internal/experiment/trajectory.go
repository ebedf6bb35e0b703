package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// The trajectory is the cross-PR perf ledger: one entry per PR (keyed by
// git SHA), each carrying the gate verdicts of that revision. Appending a
// new entry and diffing it against the previous one turns the gates from
// point-in-time thresholds into a regression trace — "the metrics
// overhead has been creeping up for three PRs" is visible in one file.

// TrajectoryEntry is one revision's gate outcomes.
type TrajectoryEntry struct {
	Env   Environment  `json:"env"`
	Scale string       `json:"scale"`
	Seed  uint64       `json:"seed"`
	Gates []GateResult `json:"gates"`
}

// Trajectory is the append-only ledger stored at
// results/BENCH_trajectory.json.
type Trajectory struct {
	Tool    string            `json:"tool"`
	Entries []TrajectoryEntry `json:"entries"`
}

// LoadTrajectory reads the ledger; a missing file is an empty ledger,
// any other read or parse failure is an error (a corrupt ledger should
// stop the run, not be silently overwritten).
func LoadTrajectory(path string) (*Trajectory, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Trajectory{Tool: "expgrid"}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: reading trajectory: %w", err)
	}
	var t Trajectory
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("experiment: parsing trajectory %s: %w", path, err)
	}
	if t.Tool == "" {
		t.Tool = "expgrid"
	}
	return &t, nil
}

// Append records an entry, replacing any previous entry with the same git
// SHA (re-running on the same commit updates in place — one entry per
// PR), and returns the previous distinct entry for comparison (nil when
// this is the first revision on record).
func (t *Trajectory) Append(e TrajectoryEntry) *TrajectoryEntry {
	var prev *TrajectoryEntry
	kept := t.Entries[:0]
	for i := range t.Entries {
		if t.Entries[i].Env.GitSHA == e.Env.GitSHA && e.Env.GitSHA != "unknown" {
			continue // replaced below
		}
		kept = append(kept, t.Entries[i])
	}
	t.Entries = kept
	if n := len(t.Entries); n > 0 {
		prev = &t.Entries[n-1]
	}
	t.Entries = append(t.Entries, e)
	return prev
}

// Save writes the ledger back through the shared encoder.
func (t *Trajectory) Save(path string) error { return WriteJSON(path, t) }

// higherIsBetter maps a gate kind to its metric's good direction:
// speedup wants to rise; overhead, allocs/op and failed-cell counts want
// to fall.
func higherIsBetter(kind string) bool { return kind == "speedup" }

// Regression is one gate metric that worsened past its configured bound
// between two trajectory entries.
type Regression struct {
	Gate string
	Prev float64
	Cur  float64
	// Why explains the verdict ("pass->fail", "worsened 12.3% > bound 5%").
	Why string
}

// String renders the regression as "gate: prev -> cur (why)".
func (r Regression) String() string {
	return fmt.Sprintf("%s: %.4f -> %.4f (%s)", r.Gate, r.Prev, r.Cur, r.Why)
}

// CompareGates diffs the current gate results against the previous
// entry's, honoring each gate's RegressPct/RegressAbs bounds from the
// spec. A pass→fail flip is always a regression; a metric moving the
// wrong way is one only past max(RegressPct% of prev, RegressAbs), and
// gates with both bounds zero are never metric-checked. Gates absent
// from either side (renamed, skipped) are ignored.
func CompareGates(spec *Spec, prev, cur []GateResult) []Regression {
	prevBy := map[string]GateResult{}
	for _, g := range prev {
		prevBy[g.Name] = g
	}
	var regs []Regression
	for _, c := range cur {
		p, ok := prevBy[c.Name]
		if !ok || p.Skipped || c.Skipped {
			continue
		}
		if p.Pass && !c.Pass {
			regs = append(regs, Regression{Gate: c.Name, Prev: p.Value, Cur: c.Value, Why: "pass -> fail"})
			continue
		}
		gs := spec.Gate(c.Name)
		if gs == nil || (gs.RegressPct == 0 && gs.RegressAbs == 0) {
			continue
		}
		delta := c.Value - p.Value
		if higherIsBetter(c.Kind) {
			delta = p.Value - c.Value
		}
		bound := gs.RegressAbs
		if pct := gs.RegressPct / 100 * abs(p.Value); pct > bound {
			bound = pct
		}
		if delta > bound {
			regs = append(regs, Regression{
				Gate: c.Name, Prev: p.Value, Cur: c.Value,
				Why: fmt.Sprintf("%s worsened by %.4f > allowed %.4f", c.Metric, delta, bound),
			})
		}
	}
	return regs
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// RenderComparison formats the current entry against the previous one as
// an aligned text table (prev == nil renders the current gates alone).
func RenderComparison(prev *TrajectoryEntry, cur TrajectoryEntry, regs []Regression) string {
	regBy := map[string]Regression{}
	for _, r := range regs {
		regBy[r.Gate] = r
	}
	var b strings.Builder
	if prev != nil {
		fmt.Fprintf(&b, "trajectory: comparing %.12s (prev) -> %.12s (cur)\n", prev.Env.GitSHA, cur.Env.GitSHA)
	} else {
		fmt.Fprintf(&b, "trajectory: first entry %.12s (no previous revision to compare)\n", cur.Env.GitSHA)
	}
	fmt.Fprintf(&b, "%-18s %-13s %12s %12s  %s\n", "gate", "metric", "prev", "cur", "status")
	for _, g := range cur.Gates {
		prevVal := "-"
		if prev != nil {
			for _, p := range prev.Gates {
				if p.Name == g.Name {
					prevVal = fmt.Sprintf("%.4f", p.Value)
				}
			}
		}
		status := "PASS"
		switch {
		case g.Skipped:
			status = "SKIP (" + g.SkipReason + ")"
		case !g.Pass:
			status = "FAIL"
		}
		if r, ok := regBy[g.Name]; ok {
			status += "  REGRESSION: " + r.Why
		}
		fmt.Fprintf(&b, "%-18s %-13s %12s %12.4f  %s\n", g.Name, g.Metric, prevVal, g.Value, status)
	}
	return b.String()
}
