package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDocsNameExistingCommands: every cmd/<name> the living documents
// mention must be a command that exists. (CHANGES.md and ROADMAP.md are
// history and may name what was removed.)
func TestDocsNameExistingCommands(t *testing.T) {
	cmdRef := regexp.MustCompile(`\bcmd/([a-z0-9_]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		missing := map[string]bool{}
		for _, m := range cmdRef.FindAllSubmatch(text, -1) {
			name := string(m[1])
			if _, err := os.Stat(filepath.Join("cmd", name, "main.go")); err != nil && !missing[name] {
				missing[name] = true
				t.Errorf("%s names cmd/%s, which does not exist", doc, name)
			}
		}
	}
}
