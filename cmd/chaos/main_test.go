package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSmoke runs one tiny chaos round in-process: every contract must
// hold, every fault point must have been consulted, and a bad
// configuration must be a one-line usage error, not a panic.
func TestSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rounds", "1", "-ops", "200", "-seeds", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	out := stdout.String()
	for _, want := range []string{"zmsq", "# all contracts held", "#   faults:", "trylock="} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-batch", "-1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-batch -1: exit %d, want 2", code)
	}
	if msg := strings.TrimSpace(stderr.String()); strings.Count(msg, "\n") != 0 || !strings.Contains(msg, "Batch") {
		t.Errorf("-batch -1: want a one-line Config.Batch error, got:\n%s", msg)
	}
}
