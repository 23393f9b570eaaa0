// Package analysis is pervalint's engine: a stdlib-only static-analysis
// driver (go/parser + go/types, no x/tools) that loads and type-checks
// every package in the module and runs the project-specific analyzers
// enforcing the repo's determinism, clock-rule, fast-path, hot-path and
// test-only-code invariants. See DESIGN.md §1.8 for the invariant each analyzer guards
// and the regression no test would catch.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the analyzed module.
// Only non-test files are loaded: the invariants pervalint enforces are
// production-code disciplines, and tests legitimately poke at internals.
type Package struct {
	ImportPath string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader resolves and type-checks packages. Module-local import paths
// (under Module) are parsed from Root; everything else is delegated to
// the go/importer source importer, which type-checks the standard
// library from $GOROOT/src — keeping the whole pipeline free of
// external dependencies and of compiled export data.
type Loader struct {
	Fset   *token.FileSet
	Root   string // module root directory
	Module string // module import path

	ctxt    build.Context
	stdlib  types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at root. Cgo is
// disabled for the load (the source importer cannot run cgo; the pure-Go
// fallbacks of net et al. type-check identically for analysis purposes).
func NewLoader(root, module string) *Loader {
	build.Default.CgoEnabled = false // srcimporter consults build.Default
	fset := token.NewFileSet()
	ctxt := build.Default
	return &Loader{
		Fset:    fset,
		Root:    root,
		Module:  module,
		ctxt:    ctxt,
		stdlib:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// FindModuleRoot walks upward from dir to the nearest directory holding
// a go.mod and returns its path and module name.
func FindModuleRoot(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if name, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(name), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer: module-local paths load from source
// under Root, everything else (the standard library) goes through the
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.stdlib.Import(path)
}

// Load type-checks the module-local package at the given import path,
// memoized for the loader's lifetime.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %v", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %v", path, err)
	}
	p := &Package{ImportPath: path, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Packages returns every module-local package the loader has loaded so
// far (requested packages and their module-local dependency closure),
// sorted by import path. This is the node set the call graph is built
// over.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out
}

// Discover walks the module tree and returns the import paths of every
// buildable package, sorted. testdata, hidden and vendor directories are
// skipped, matching the go tool's convention.
func (l *Loader) Discover() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := l.ctxt.ImportDir(path, 0)
		if err != nil || len(bp.GoFiles) == 0 {
			return nil // not a buildable package; keep walking
		}
		rel, err := filepath.Rel(l.Root, path)
		if err != nil {
			return err
		}
		ip := l.Module
		if rel != "." {
			ip = l.Module + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
