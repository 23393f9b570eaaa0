package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListAnalyzers smoke-tests the -list flag: all five analyzers
// must be advertised.
func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{"determinism", "clockrule", "fastpath", "hotpath", "testonly"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out.String())
		}
	}
}

// TestJSONClean runs the real driver over the module in JSON mode: the
// repo is lint-clean, so the report must decode to zero diagnostics
// and the exit status must be 0. This is the -json contract test: the
// schema is {"diagnostics": [...], "count": N}.
func TestJSONClean(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-C", "../..", "./..."}, &out, &errb)
	if code != 0 {
		t.Fatalf("run(-json ./...) = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not the documented JSON schema: %v\n%s", err, out.String())
	}
	if rep.Count != 0 || len(rep.Diagnostics) != 0 {
		t.Errorf("repo not lint-clean: count=%d diagnostics=%v", rep.Count, rep.Diagnostics)
	}
}

// TestSubsetRunQuiet: a run on a package subset loads no entry points,
// so testonly reports nothing there — no finding, and no unused allow on
// the checker tree's declared test hooks — and the run is clean.
func TestSubsetRunQuiet(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-C", "../..", "internal/checker"}, &out, &errb)
	if code != 0 || strings.Contains(out.String(), "testonly") {
		t.Fatalf("run(internal/checker) = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

// TestUnknownAnalyzer checks that an allow naming a retired analyzer
// (determtaint merged into determinism) is a finding, not a silent no-op.
func TestUnknownAnalyzer(t *testing.T) {
	const retired = "determtaint"
	dir := writeModule(t, map[string]string{
		"m/m.go": "package m\n\n//lint:allow " + retired + "(retired name)\nvar X = 1\n",
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &out, &errb); code != 1 {
		t.Fatalf("run = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "names unknown analyzer "+retired) {
		t.Errorf("retired analyzer name not reported:\n%s", out.String())
	}
}

// TestWhyNoFinding checks -why's miss path: the repo is lint-clean, so
// no position has a taint path, and the miss is an error exit with a
// pointer back to the normal listing.
func TestWhyNoFinding(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-why", "nosuch.go:1", "-C", "../..", "./internal/sim"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run(-why nosuch.go:1) = %d, want 1\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no determinism boundary crossing at nosuch.go:1") {
		t.Errorf("miss diagnostic not printed:\n%s", errb.String())
	}
}

// TestWhyBadArg checks the -why argument grammar.
func TestWhyBadArg(t *testing.T) {
	for _, arg := range []string{"nocolon", "file.go:", ":12", "file.go:zero", "file.go:-3"} {
		if _, _, err := parseWhy(arg); err == nil {
			t.Errorf("parseWhy(%q) accepted a malformed position", arg)
		}
	}
	if f, l, err := parseWhy("a/b.go:42"); err != nil || f != "a/b.go" || l != 42 {
		t.Errorf("parseWhy(a/b.go:42) = %q, %d, %v", f, l, err)
	}
}

// writeModule lays out a throwaway module for the load-error tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadErrors drives the loader's failure paths through the CLI:
// every load problem must exit 2 with the underlying diagnostic on
// stderr, never a zero-finding success.
func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name   string
		files  map[string]string
		args   []string
		stderr string
	}{
		{
			name: "parse error",
			files: map[string]string{
				"broken/broken.go": "package broken\n\nfunc Oops( {\n",
			},
			args:   []string{"./..."},
			stderr: "broken.go",
		},
		{
			name: "type error",
			files: map[string]string{
				"typo/typo.go": "package typo\n\nfunc F() int { return undefinedName }\n",
			},
			args:   []string{"./..."},
			stderr: "undefinedName",
		},
		{
			name: "missing import",
			files: map[string]string{
				"uses/uses.go": "package uses\n\nimport \"tmpmod/nosuch\"\n\nvar _ = nosuch.X\n",
			},
			args:   []string{"./..."},
			stderr: "tmpmod/nosuch",
		},
		{
			name: "no matching package",
			files: map[string]string{
				"ok/ok.go": "package ok\n",
			},
			args:   []string{"./nowhere"},
			stderr: "no packages match",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeModule(t, tc.files)
			var out, errb bytes.Buffer
			code := run(append([]string{"-C", dir}, tc.args...), &out, &errb)
			if code != 2 {
				t.Fatalf("run = %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
			}
			if !strings.Contains(errb.String(), tc.stderr) {
				t.Errorf("stderr missing %q:\n%s", tc.stderr, errb.String())
			}
		})
	}
}

func TestFilterPackages(t *testing.T) {
	all := []string{"pervasive/internal/sim", "pervasive/internal/clock", "pervasive/cmd/pervalint"}
	cases := []struct {
		patterns []string
		want     int
	}{
		{nil, 3},
		{[]string{"./..."}, 3},
		{[]string{"./internal/sim"}, 1},
		{[]string{"internal/..."}, 2},
		{[]string{"clock", "sim"}, 2},
		{[]string{"nomatch"}, 0},
	}
	for _, tc := range cases {
		got := filterPackages(all, "pervasive", tc.patterns)
		if len(got) != tc.want {
			t.Errorf("filterPackages(%v) = %v, want %d packages", tc.patterns, got, tc.want)
		}
	}
}
