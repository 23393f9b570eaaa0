// Command pervalint is the repo's custom static-analysis driver: it
// loads and type-checks every package in the module with only the
// standard library (go/parser + go/types; no x/tools) and runs the
// project-specific analyzers that enforce the determinism, clock-rule,
// fast-path, hot-path-allocation and test-only-code invariants over a
// module-wide call graph (DESIGN.md §1.8). testonly reports only when
// every package of the module is analyzed: its entry points (every main
// and init, the root package's API) must all be loaded.
//
// Usage:
//
//	pervalint [flags] [packages]
//
// Packages are import-path patterns: "./..." (or no arguments) analyzes
// the whole module; anything else selects packages whose import path
// contains the pattern (a "./internal/sim"-style relative path works).
//
// Flags:
//
//	-json            emit diagnostics as JSON (schema below)
//	-list            print the analyzers and exit
//	-C dir           run as if launched from dir (module root discovery)
//	-why file:line   print the call-graph path behind the determinism
//	                 boundary-crossing finding at that position (file
//	                 matched by suffix) instead of the normal listing
//
// Suppressions use the //lint:allow grammar checked by the driver
// itself: `//lint:allow <analyzer>(<reason>)` on the offending line or
// the line above; the reason is mandatory, and allows that no longer
// suppress anything are reported as unused.
//
// JSON output is one object:
//
//	{"diagnostics": [{"file": "...", "line": N, "col": N,
//	                  "analyzer": "...", "message": "..."}, ...],
//	 "count": N}
//
// Exit status: 0 clean, 1 diagnostics found, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"pervasive/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type jsonReport struct {
	Diagnostics []analysis.Diagnostic `json:"diagnostics"`
	Count       int                   `json:"count"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pervalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	list := fs.Bool("list", false, "print the analyzers and exit")
	chdir := fs.String("C", ".", "directory to resolve the module from")
	why := fs.String("why", "", "print the determinism call-graph path for the finding at file:line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, module, err := analysis.FindModuleRoot(*chdir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loader := analysis.NewLoader(root, module)
	all, err := loader.Discover()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	paths := filterPackages(all, module, fs.Args())
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "pervalint: no packages match", fs.Args())
		return 2
	}

	res, err := analysis.Run(loader, analysis.DefaultConfig(), paths)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags := res.Diagnostics
	if *why != "" {
		file, line, err := parseWhy(*why)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		path := res.ExplainTaint(file, line)
		if path == nil {
			fmt.Fprintf(stderr, "pervalint: no determinism boundary crossing at %s (run without -why to list findings)\n", *why)
			return 1
		}
		for _, l := range path {
			fmt.Fprintln(stdout, l)
		}
		return 0
	}
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
	if *jsonOut {
		if diags == nil {
			diags = []analysis.Diagnostic{} // "diagnostics" is documented as an array, never null
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(jsonReport{Diagnostics: diags, Count: len(diags)}); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "pervalint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// parseWhy splits a -why argument into its file and line halves.
func parseWhy(arg string) (string, int, error) {
	i := strings.LastIndex(arg, ":")
	if i <= 0 || i == len(arg)-1 {
		return "", 0, fmt.Errorf("pervalint: -why wants file:line, got %q", arg)
	}
	line, err := strconv.Atoi(arg[i+1:])
	if err != nil || line <= 0 {
		return "", 0, fmt.Errorf("pervalint: -why wants file:line, got %q", arg)
	}
	return arg[:i], line, nil
}

// filterPackages selects from the discovered import paths. No patterns
// or "./..." means everything; otherwise a package is kept when its
// import path contains any pattern (leading "./" stripped, so relative
// directory paths work as patterns).
func filterPackages(all []string, module string, patterns []string) []string {
	keepAll := len(patterns) == 0
	for _, p := range patterns {
		if p == "./..." || p == "..." || p == module {
			keepAll = true
		}
	}
	if keepAll {
		return all
	}
	var out []string
	for _, path := range all {
		for _, p := range patterns {
			p = strings.TrimPrefix(strings.TrimSuffix(p, "/..."), "./")
			if p == "" || strings.Contains(path, p) {
				out = append(out, path)
				break
			}
		}
	}
	return out
}
