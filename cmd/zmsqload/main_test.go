package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestStrayArgumentRefused: a positional argument is no setting, so
// zmsqload prints its usage and exits 2 before it dials anything.
func TestStrayArgumentRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", "127.0.0.1:1", "-ops", "1", "50000"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stderr.String(), `unexpected argument "50000"`) || !strings.Contains(stderr.String(), "-qps") {
		t.Fatalf("stderr carries no diagnostic and usage:\n%s", &stderr)
	}
	if stdout.Len() != 0 {
		t.Fatalf("a sweep ran:\n%s", &stdout)
	}
}
