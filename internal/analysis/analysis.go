package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Config scopes the analyzers to the packages whose invariants they
// enforce. The zero value checks nothing; DefaultConfig returns the
// repo's real scoping. Fixture tests substitute their own paths.
type Config struct {
	// DeterministicPkgs are the packages whose runs must be bit-for-bit
	// reproducible: the determinism analyzer flags wall-clock reads,
	// global rand and map-ordered iteration there, and calls out of them
	// into nondeterministic helpers anywhere in the module.
	DeterministicPkgs []string
	// ClockPkg is the clock package whose SVC/SSC/VC/SC state the
	// clockrule analyzer guards.
	ClockPkg string
	// ClockRuleFuncs are the clock methods allowed to mutate clock
	// state (the paper's rule applications), besides New* constructors.
	ClockRuleFuncs []string
	// ObsPkg holds the registry whose string-keyed lookups the fastpath
	// analyzer keeps out of loops.
	ObsPkg string
	// NoopTypes lists, per package import path, the types whose nil
	// pointer is the disabled fast path and so must not be wrapped in a
	// non-empty interface.
	NoopTypes map[string][]string
	// HotPkgs are the engine packages where string-keyed registry
	// lookups (Registry.Counter/Gauge/Histogram) inside loops are
	// flagged: instruments must be resolved once and held.
	HotPkgs []string
	// HotFuncs are the kernel functions whose transitive call closure
	// the hotpath analyzer proves allocation-free: qualified as
	// "pkgpath.Func" for package functions or "pkgpath.Type.Method"
	// for methods (pointer receivers match the bare type name).
	HotFuncs []string
}

// DefaultConfig is pervalint's scoping for this repository.
func DefaultConfig() Config {
	const m = "pervasive"
	return Config{
		DeterministicPkgs: []string{
			m + "/internal/sim",
			m + "/internal/runner",
			m + "/internal/lattice",
			m + "/internal/core",
			m + "/internal/experiments",
			m + "/internal/clock",
			m + "/internal/live",
			m + "/internal/workload",
		},
		ClockPkg:       m + "/internal/clock",
		ClockRuleFuncs: []string{"Strobe", "StrobeInto", "OnStrobe", "Tick", "Send", "Receive", "MergeFrom", "MergeSparse", "Reset"},
		ObsPkg:         m + "/internal/obs",
		NoopTypes: map[string][]string{
			m + "/internal/obs":    {"Counter", "Gauge", "Histogram", "LocalHist", "Registry", "Span"},
			m + "/internal/faults": {"Injector"},
			m + "/internal/flight": {"Recorder"},
		},
		HotPkgs: []string{
			m + "/internal/sim",
			m + "/internal/runner",
			m + "/internal/lattice",
			m + "/internal/core",
			m + "/internal/experiments",
			m + "/internal/live",
			m + "/internal/network",
		},
		// The bench-proven kernels: DES schedule/step (0 allocs/op in
		// BenchmarkKernelScheduleStep), a sharded epoch over the crew
		// (0 allocs per warm epoch in TestCrewEpochAllocations), the
		// strobe stamp/merge kernels,
		// the incremental clause evaluator's O(1) update (checker tree and
		// oracle scoring), the checker tree's per-report path (the one
		// production checker: admission, race probe, staging and a
		// flush's encode → decode round trip, 0 allocs per report in
		// TestTreeReportAllocs), the duty-cycle MAC's two event functions
		// (no closure per wake or beacon copy, TestRunAllocationsDoNotGrow-
		// WithHorizon), and the workload trace codec's per-event
		// primitives.
		HotFuncs: []string{
			m + "/internal/sim.Engine.AtPri",
			m + "/internal/sim.Engine.Step",
			m + "/internal/sim.Shards.runEpoch",
			m + "/internal/clock.SparseStrobeVector.Strobe",
			m + "/internal/clock.SparseStrobeVector.StrobeInto",
			m + "/internal/clock.Vector.MergeSparse",
			m + "/internal/clock.SparseStrobeVector.OnStrobe",
			m + "/internal/clock.StrobeVector.StrobeInto",
			m + "/internal/core.Sensor.Sense",
			m + "/internal/network.ShardPart.deliver",
			m + "/internal/network.Net.deliverCopy",
			m + "/internal/network.Net.deliverHop",
			m + "/internal/predicate.Incremental.Set",
			m + "/internal/checker.Tree.OnReport",
			m + "/internal/mac.dutyRun.wake",
			m + "/internal/mac.dutyRun.hear",
			m + "/internal/workload.appendUvarint",
			m + "/internal/workload.decoder.uvarint",
		},
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Module is the whole-program context shared by every analyzer pass of
// one run: the loader, the analyzed packages, and the call graph built
// over every module-local package the load pulled in (analyzed or
// not), so reachability analyses see helpers behind package
// boundaries.
type Module struct {
	Loader *Loader
	Config Config
	Graph  *CallGraph
	// Pkgs are the packages being analyzed this run, in request order.
	Pkgs []*Package

	allows   map[string]*allowIndex       // import path -> parsed allows
	taint    *taintResult                 // memoized by the determinism analyzer
	hot      *hotResult                   // memoized by the hotpath analyzer
	testonly map[string][]testonlyFinding // memoized by the testonly analyzer

	// whole is set when the run analyzes every package of the module,
	// so every entry point is loaded: testonly reports only then.
	whole bool

	clockSanct map[*types.Func]bool   // memoized by clockrule (graph-sanctioned writers)
	regLookups map[*types.Func]string // memoized by fastpath (helpers doing registry lookups)
}

// allowsFor parses (memoized) the //lint:allow annotations of pkg.
// Dependency packages outside the analyzed set get an index too, so
// interprocedural analyzers can honor seed-site suppressions there;
// unused-allow reporting still happens only for analyzed packages.
func (m *Module) allowsFor(pkg *Package) (*allowIndex, []Diagnostic) {
	if idx, ok := m.allows[pkg.ImportPath]; ok {
		return idx, nil
	}
	idx, diags := parseAllows(m.Loader.Fset, pkg.Files)
	m.allows[pkg.ImportPath] = idx
	return idx, diags
}

// allowedAt reports whether an allow for analyzer covers (file, line)
// in pkg, marking it used. Interprocedural analyzers use it to honor
// suppressions at seed sites in packages other than the one being
// analyzed.
func (m *Module) allowedAt(pkg *Package, analyzer string, pos token.Position) bool {
	idx, _ := m.allowsFor(pkg)
	return idx.suppress(Diagnostic{File: pos.Filename, Line: pos.Line, Analyzer: analyzer})
}

// Pass carries one package through one analyzer.
type Pass struct {
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	ImportPath string
	Config     Config

	// Mod is the whole-program context: call graph, sibling packages,
	// cross-package allow indexes.
	Mod *Module

	// Dep loads a module-local dependency package (memoized by the
	// loader), letting analyzers resolve the canonical obs/clock types.
	Dep func(path string) (*types.Package, error)

	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-tolerant Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// allAnalyzers is populated by init rather than a composite literal:
// the interprocedural analyzers reach All() through the allow parser,
// and a direct literal would be an initialization cycle.
var allAnalyzers []*Analyzer

func init() {
	allAnalyzers = []*Analyzer{Determinism, ClockRule, FastPath, HotPath, TestOnly}
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return allAnalyzers
}

// Result is one full run: the diagnostics plus the whole-program
// context (call graph, taint paths) behind them, for pervalint's -why
// output.
type Result struct {
	Diagnostics []Diagnostic
	Mod         *Module
}

// Run loads each import path with the loader (pulling its module-local
// dependency closure in), builds the call graph once over everything
// loaded, notes whether the paths cover the whole module, runs every
// analyzer over each requested package — so every pass sees the same
// module-wide graph — then applies //lint:allow
// suppression and reports unused or malformed allow annotations.
// Suppression runs after every pass, because the determinism analyzer
// marks allows used across package boundaries (a seed waiver in a
// helper package must not surface as unused). Diagnostics come back
// sorted by file, line, column.
func Run(l *Loader, cfg Config, paths []string) (*Result, error) {
	mod := &Module{
		Loader: l,
		Config: cfg,
		allows: make(map[string]*allowIndex),
	}
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	mod.Graph = BuildCallGraph(l.Packages())
	discovered, err := l.Discover()
	if err != nil {
		return nil, err
	}
	mod.whole = true
	for _, path := range discovered {
		if !contains(paths, path) {
			mod.whole = false
		}
	}

	// Phase 1: run every analyzer over every package, collecting raw
	// diagnostics per package. Allow indexes are built (and their
	// grammar diagnostics collected) up front so cross-package used
	// marking lands in the same indexes suppression reads later.
	raws := make([][]Diagnostic, len(mod.Pkgs))
	grammar := make([][]Diagnostic, len(mod.Pkgs))
	for i, pkg := range mod.Pkgs {
		_, gd := mod.allowsFor(pkg)
		grammar[i] = gd
	}
	for i, pkg := range mod.Pkgs {
		for _, a := range All() {
			pass := &Pass{
				Fset:       l.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				ImportPath: pkg.ImportPath,
				Config:     cfg,
				Mod:        mod,
				Dep: func(path string) (*types.Package, error) {
					p, err := l.Load(path)
					if err != nil {
						return nil, err
					}
					return p.Types, nil
				},
				analyzer: a.Name,
				diags:    &raws[i],
			}
			a.Run(pass)
		}
	}

	// Phase 2: suppression, then unused-allow reporting. A subset run
	// cannot tell a testonly allow's use, so it does not judge one.
	quiet := ""
	if !mod.whole {
		quiet = "testonly"
	}
	var all []Diagnostic
	for i, pkg := range mod.Pkgs {
		idx := mod.allows[pkg.ImportPath]
		kept := grammar[i]
		for _, d := range raws[i] {
			if idx.suppress(d) {
				continue
			}
			kept = append(kept, d)
		}
		kept = append(kept, idx.unused(quiet)...)
		all = append(all, kept...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return &Result{Diagnostics: all, Mod: mod}, nil
}
