package pervasive

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyExistingTargets keeps the prose honest when a target or
// a binary is retired: every `make <target>` a doc quotes must be in the
// Makefile's .PHONY list, and every ./cmd/<name> it invokes must exist.
func TestDocsNameOnlyExistingTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	phony := map[string]bool{}
	for _, line := range strings.Split(string(mk), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, target := range strings.Fields(rest) {
				phony[target] = true
			}
		}
	}
	if len(phony) == 0 {
		t.Fatal("Makefile declares no .PHONY targets")
	}

	makeRef := regexp.MustCompile("`make\\s+([a-z][a-z0-9-]*)`")
	cmdRef := regexp.MustCompile(`\./cmd/([a-z][a-z0-9]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeRef.FindAllStringSubmatch(string(text), -1) {
			if !phony[m[1]] {
				t.Errorf("%s: `make %s` is not a .PHONY target of the Makefile", doc, m[1])
			}
		}
		for _, m := range cmdRef.FindAllStringSubmatch(string(text), -1) {
			if fi, err := os.Stat("cmd/" + m[1]); err != nil || !fi.IsDir() {
				t.Errorf("%s: ./cmd/%s does not exist", doc, m[1])
			}
		}
	}
}
