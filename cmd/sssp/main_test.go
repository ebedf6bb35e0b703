package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSmoke runs Figure 7's small graph in-process on one worker: every
// queue's distances must match the sequential Dijkstra oracle.
func TestSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-graph", "politician", "-threads", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	out := stdout.String()
	if strings.Contains(out, "WRONG") {
		t.Fatalf("a queue computed wrong distances:\n%s", out)
	}
	for _, queue := range []string{"zmsq(42,64)", "zmsq(42,64)array", "zmsq(42,64)leak", "mound", "spraylist", "delta-stepping"} {
		ok := false
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) > 0 && f[0] == queue && f[len(f)-1] == "ok" {
				ok = true
			}
		}
		if !ok {
			t.Errorf("no ok row for %s:\n%s", queue, out)
		}
	}

	if code := run([]string{"-graph", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("-graph nope: exit %d, want 2", code)
	}
}
