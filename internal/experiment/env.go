package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Environment is the provenance block every emitted BENCH_*.json carries,
// so results from different runs and machines are comparable without
// guesswork. One encoder (CaptureEnv + WriteJSON) produces it everywhere.
type Environment struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Cores      int    `json:"cores"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Date       string `json:"date"` // RFC3339, UTC
}

// CaptureEnv samples the environment block for this process. The git SHA
// is best-effort: outside a work tree (or without git) it reads
// "unknown", never an error — provenance must not fail a benchmark run.
func CaptureEnv() Environment {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if s := strings.TrimSpace(string(out)); s != "" {
			sha = s
		}
	}
	return Environment{
		GitSHA:     sha,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Cores:      runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

// WriteJSON writes v as indented JSON with a trailing newline, creating
// parent directories — the one encoder behind every results/ file.
func WriteJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("experiment: encoding %s: %w", path, err)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// GateReport is the canonical per-gate JSON document (BENCH_metrics.json,
// BENCH_sharded.json, ...): the verdict, the cells behind it, and the
// shared environment block.
type GateReport struct {
	Tool  string       `json:"tool"`
	Env   Environment  `json:"env"`
	Scale string       `json:"scale"`
	Seed  uint64       `json:"seed"`
	Gate  GateResult   `json:"gate"`
	Cells []CellResult `json:"cells"`
}

// WriteGateReport assembles and writes one gate's report next to its
// grid: the gate verdict plus every cell of the gate's experiment.
func WriteGateReport(dir string, grid *GridResult, g GateSpec, res GateResult) error {
	if g.Out == "" {
		return nil
	}
	rep := GateReport{
		Tool:  grid.Tool,
		Env:   grid.Env,
		Scale: grid.Scale,
		Seed:  grid.Seed,
		Gate:  res,
	}
	for _, c := range grid.Cells {
		if c.Cell.Experiment == g.Experiment {
			rep.Cells = append(rep.Cells, c)
		}
	}
	return WriteJSON(filepath.Join(dir, g.Out), rep)
}
