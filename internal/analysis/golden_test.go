package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden harness runs the full driver (analyzers + allow
// suppression) over the fixture module under testdata/src and
// diff-checks the diagnostics against "// want" expectation comments
// (a backquoted regexp per comment): every diagnostic must match a
// want on its line, and every want must be matched by a diagnostic.
// The "want+1" form anchors the expectation to the following line,
// for findings that land on full-line comments (the allow grammar's
// own diagnostics).

// fixtureConfig scopes the analyzers to the fixture module the same
// way DefaultConfig scopes them to the repo.
func fixtureConfig() Config {
	return Config{
		DeterministicPkgs: []string{"fix/determ", "fix/dtaint", "fix/allowscope"},
		ClockPkg:          "fix/clockpkg",
		ClockRuleFuncs:    []string{"Strobe", "OnStrobe", "Tick", "Reset"},
		ObsPkg:            "fix/fastobs",
		NoopTypes:         map[string][]string{"fix/fastobs": {"Counter", "Registry"}},
		HotPkgs:           []string{"fix/fastuser"},
		// fix/hotkern.Missing is deliberately stale: the hotpath
		// analyzer must report a config entry that resolves to nothing.
		HotFuncs: []string{"fix/hotkern.Kernel.Step", "fix/hotkern.Missing"},
	}
}

func TestAnalyzersGolden(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "fix")
	cases := []struct {
		name string
		pkgs []string
	}{
		{"determinism", []string{"fix/determ"}},
		{"determtaint", []string{"fix/dtaint", "fix/dthelp"}}, // the taint half of determinism
		{"allowscope", []string{"fix/allowscope"}},
		{"clockrule", []string{"fix/clockpkg", "fix/clockuser"}},
		{"fastpath", []string{"fix/fastobs", "fix/fastuser"}},
		{"hotpath", []string{"fix/hotkern"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(loader, fixtureConfig(), tc.pkgs)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range tc.pkgs {
				dir := filepath.Join(root, strings.TrimPrefix(pkg, "fix/"))
				checkGolden(t, dir, res.Diagnostics)
			}
		})
	}
}

var wantRe = regexp.MustCompile("// want(\\+1)? `([^`]*)`")

// checkGolden matches the diagnostics landing in dir against the want
// comments of dir's fixture files.
func checkGolden(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey][]*regexp.Regexp)
	matched := make(map[*regexp.Regexp]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			target := i + 1 // line numbers are 1-based
			if m[1] == "+1" {
				target++
			}
			re, err := regexp.Compile(m[2])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern: %v", path, i+1, err)
			}
			wants[lineKey{path, target}] = append(wants[lineKey{path, target}], re)
		}
	}
	for _, d := range diags {
		if filepath.Dir(d.File) != dir {
			continue
		}
		found := false
		for _, re := range wants[lineKey{d.File, d.Line}] {
			if re.MatchString(d.Message) {
				matched[re] = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if !matched[re] {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
			}
		}
	}
}

// TestExplainTaint drives the -why machinery over the determinism taint
// fixture: the two-hop finding in dtaint.go must explain as a rendered
// path ending at the wall-clock seed in the helper package.
func TestExplainTaint(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "fix")
	res, err := Run(loader, fixtureConfig(), []string{"fix/dtaint", "fix/dthelp"})
	if err != nil {
		t.Fatal(err)
	}
	// Locate the Observed call (the two-hop path) by its diagnostic.
	var file string
	var line int
	for _, d := range res.Diagnostics {
		if strings.Contains(d.Message, "call to dthelp.Observed") {
			file, line = d.File, d.Line
		}
	}
	if file == "" {
		t.Fatal("fixture lost the dthelp.Observed finding")
	}
	path := res.ExplainTaint(filepath.Base(file), line)
	if len(path) != 3 {
		t.Fatalf("ExplainTaint returned %d hops, want 3:\n%s", len(path), strings.Join(path, "\n"))
	}
	for i, want := range []string{
		"dtaint.Observe calls dthelp.Observed",
		"dthelp.Observed calls dthelp.Elapsed",
		"dthelp.Elapsed contains time.Since (seed)",
	} {
		if !strings.Contains(path[i], want) {
			t.Errorf("hop %d = %q, want it to contain %q", i, path[i], want)
		}
	}
	if res.ExplainTaint("nosuch.go", 1) != nil {
		t.Error("ExplainTaint invented a path for a position with no finding")
	}
}

// TestRepoClean runs the full suite over the real module with the real
// config: the tree must be clean, every //lint:allow annotation in it
// load-bearing (unused allows are themselves diagnostics).
func TestRepoClean(t *testing.T) {
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, module)
	paths, err := loader.Discover()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(loader, DefaultConfig(), paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestTestOnlyGolden runs the suite over the testonly fixture, a module
// of its own (root package, a main, an internal package) so that the run
// covers every package and the analyzer reports. The same module
// analyzed one package at a time must stay quiet: a subset run has no
// entry points loaded, and cannot judge a testonly allow either.
func TestTestOnlyGolden(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "testonly"))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "tofix")
	paths, err := loader.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("fixture module holds %v, want the root, cmd/tool and internal/lib", paths)
	}
	res, err := Run(loader, Config{}, paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		checkGolden(t, filepath.Join(root, strings.TrimPrefix(strings.TrimPrefix(path, "tofix"), "/")), res.Diagnostics)
	}
	for _, path := range paths {
		res, err := Run(NewLoader(root, "tofix"), Config{}, []string{path})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Diagnostics {
			t.Errorf("subset run of %s reported %s", path, d)
		}
	}
}
