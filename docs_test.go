package pervasive

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameOnlyExistingTargets keeps the prose and the CI recipes honest
// when a target, a binary or a test is retired: every `make <target>` a doc
// quotes must be in the Makefile's .PHONY list, every ./cmd/<name> it
// invokes must exist, and every alternative of every `go test -run` pattern
// and every `-fuzz` target in the Makefile and the CI workflow must match a
// test in the packages its line names — a deleted test must not leave a line
// that passes by running nothing.
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
	for _, doc := range docs {
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

	runRef := regexp.MustCompile(`-run\s+(?:'([^']+)'|(\S+))`)
	fuzzRef := regexp.MustCompile(`-fuzz[=\s]+(\w+)`)
	for _, recipe := range []string{"Makefile", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(recipe)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(text), "\n") {
			if m := fuzzRef.FindStringSubmatch(line); m != nil && strings.Contains(line, " test ") {
				if !slices.Contains(linePackagesTests(t, line), m[1]) {
					t.Errorf("%s: -fuzz target %q is not declared in the packages of: %s",
						recipe, m[1], strings.TrimSpace(line))
				}
			}
			m := runRef.FindStringSubmatch(line)
			// Benchmark lines pass a -run pattern meant to match nothing.
			if m == nil || !strings.Contains(line, " test ") || strings.Contains(line, "-bench") {
				continue
			}
			names := linePackagesTests(t, line)
			for _, alt := range strings.Split(m[1]+m[2], "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run alternative %q: %v", recipe, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s: -run alternative %q matches no test in the packages of: %s",
						recipe, alt, strings.TrimSpace(line))
				}
			}
		}
	}
}

// docs are the prose files the docs tests hold to the code.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// TestDocsQuoteOnlyEmittedMetrics keeps the prose from quoting a metric no
// code emits: every backticked `<ns>.<name>` in the docs, for the metric
// namespaces below, must be a string literal in non-test Go (cmd/bench
// included). A `<i>`-suffixed name is built at run time, so a literal
// prefix of its stem is enough. `world` is left out: `world.walk` is a Go
// function, not a metric.
func TestDocsQuoteOnlyEmittedMetrics(t *testing.T) {
	metricRef := regexp.MustCompile("`((?:net|live|faults|checker|oracle|lattice|runner|sim|clock|workload|obs)\\.[a-z][a-z0-9_.]*)(<i>)?`")
	lits := goStringLiterals(t)
	quoted := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metricRef.FindAllStringSubmatch(string(text), -1) {
			quoted++
			name, indexed := m[1], m[2] != ""
			emitted := lits[name]
			for lit := range lits {
				// The literal must reach the last dotted segment: "faults."
				// does not vouch for faults.down.p<i>, "faults.down." does.
				emitted = emitted || indexed && strings.HasPrefix(name, lit) &&
					strings.Count(lit, ".") == strings.Count(name, ".")
			}
			if !emitted {
				t.Errorf("%s: `%s%s` is no string literal in non-test Go", doc, name, m[2])
			}
		}
	}
	if quoted == 0 {
		t.Fatal("the docs quote no metric; the pattern is stale")
	}
}

// goStringLiterals collects every string literal of the module's non-test Go
// files.
func goStringLiterals(t *testing.T) map[string]bool {
	lits := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					lits[v] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lits
}

// linePackagesTests lists the tests of every package path a recipe line names.
func linePackagesTests(t *testing.T, line string) []string {
	var names []string
	for _, f := range strings.Fields(line) {
		if f == "." || strings.HasPrefix(f, "./") {
			names = append(names, testNames(t, f)...)
		}
	}
	return names
}

// testNames lists the Test and Fuzz functions declared in package path pkg ("." or
// "./dir", with a trailing "/..." for the whole subtree).
func testNames(t *testing.T, pkg string) []string {
	dir, recursive := strings.CutSuffix(pkg, "...")
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	err := filepath.WalkDir(filepath.Clean(dir), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if !recursive && filepath.Clean(path) != filepath.Clean(dir) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
