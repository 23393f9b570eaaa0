package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Determinism guards the repo's reproducibility contract: every run of
// the deterministic packages must be bit-for-bit identical at any -p
// (the property the byte-identical-tables regression test checks, and
// the property the paper's strobe-vs-physical-clock comparison rests
// on). Its seeds are the mechanically detectable ways to break it:
//
//   - wall-clock reads: time.Now, and the derived readers time.Since,
//     time.After and time.Tick, leak real time into virtual-time code.
//   - global math/rand: the un-seeded process-wide source is shared,
//     lock-ordered and unseedable per run; all randomness must flow
//     through stats.RNG streams owned by the run.
//   - environment reads: os.Getenv and os.ReadDir make a run depend on
//     ambient machine state that no seed pins down.
//   - range over a map: iteration order is randomized per run. A loop
//     that only collects keys which are later passed to a sort call in
//     the same function is exempt — that is the repo's sanctioned
//     collect-then-sort idiom.
//
// Seeds are collected in every package of the module. Each one inside
// the deterministic boundary is reported at its own site. Taint then
// propagates backward from the seeds over the module call graph (static
// edges plus interface dispatch resolved through the implements-sets),
// and every call from a deterministic package to a tainted function
// declared outside the boundary is reported at the call: the helper one
// package over that ranges a map or reads the wall clock.
//
// A seed whose line carries //lint:allow determinism(reason) is neither
// reported nor tainting, so the sanctioned wall-clock sites and
// order-insensitive map folds do not poison their callers; a boundary
// crossing is waived at the call with the same annotation.
// `pervalint -why file:line` prints the full call-graph path from a
// flagged call to its seed.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock reads, global math/rand, environment reads and map-ordered iteration in the deterministic packages, and calls from them into helpers that transitively reach one",
	Run:  runDeterminism,
}

// seededRandCtors are the math/rand package functions that construct an
// explicitly seeded generator rather than touching the global source.
var seededRandCtors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

// wallClockFuncs are the time package functions that read (or schedule
// against) the wall clock. time.AfterFunc is deliberately absent: the live
// engine, wall-clock paced by design, is its only caller, and the live
// tests (TestLiveFaultTimerNeverParks, TestLiveOverloadStaysBounded) hold
// its callbacks to never park a goroutine.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "After": true, "Tick": true}

// envReadFuncs are the os package functions that read ambient machine
// state.
var envReadFuncs = map[string]bool{"Getenv": true, "ReadDir": true}

// seedDesc classifies n, whose ancestors are stack, as a
// nondeterministic construct, returning a short description
// ("time.Now", "global math/rand.Intn", "os.Getenv", "map range") or "".
func seedDesc(info *types.Info, n ast.Node, stack []ast.Node) string {
	switch n := n.(type) {
	case *ast.CallExpr:
		fn := calleeFunc(info, n)
		if fn == nil || fn.Pkg() == nil {
			return ""
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return ""
		}
		switch pkg := fn.Pkg().Path(); {
		case pkg == "time" && wallClockFuncs[fn.Name()]:
			return "time." + fn.Name()
		case pkg == "os" && envReadFuncs[fn.Name()]:
			return "os." + fn.Name()
		case (pkg == "math/rand" || pkg == "math/rand/v2") && !seededRandCtors[fn.Name()]:
			return "global math/rand." + fn.Name()
		}
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap && !collectThenSorted(info, n, stack) {
				return "map range"
			}
		}
	}
	return ""
}

// seedAdvice is the remedy a reported seed's message ends with.
func seedAdvice(desc string) string {
	switch {
	case desc == "map range":
		return "iteration order is randomized per run; collect and sort the keys, or justify with //lint:allow determinism(reason)"
	case strings.HasPrefix(desc, "time."):
		return "use the engine's virtual clock, or annotate a wall-clock-only use with //lint:allow determinism(reason)"
	case strings.HasPrefix(desc, "os."):
		return "ambient machine state is not pinned by the run seed; thread configuration in explicitly, or annotate with //lint:allow determinism(reason)"
	}
	return "draw from a per-run stats.RNG stream instead"
}

// taintSeed is one nondeterministic construct: the position and a
// short description ("time.Now", "map range", ...).
type taintSeed struct {
	pos  token.Pos
	desc string
}

// taintResult is the module-wide fixpoint, memoized on the Module.
type taintResult struct {
	// sites maps a deterministic package to every seed in its files, in
	// source order, waived or not (suppression happens after the pass).
	sites map[string][]taintSeed
	// seedOf maps a function to the first live (unwaived) seed in its
	// own body.
	seedOf map[*types.Func]taintSeed
	// next maps a tainted function without its own seed to the call
	// edge leading one hop closer to a seed (BFS tree toward seeds).
	next map[*types.Func]CallEdge
	// findings records every reported call site for -why lookup.
	findings []TaintFinding
}

// TaintFinding is one reported deterministic-boundary crossing.
type TaintFinding struct {
	Pos    token.Position
	Caller *types.Func
	Callee *types.Func
}

func (tr *taintResult) tainted(fn *types.Func) bool {
	if _, ok := tr.seedOf[fn]; ok {
		return true
	}
	_, ok := tr.next[fn]
	return ok
}

// taintFixpoint computes (memoized) the module-wide seeds and taint set.
func (m *Module) taintFixpoint() *taintResult {
	if m.taint != nil {
		return m.taint
	}
	tr := &taintResult{
		sites:  make(map[string][]taintSeed),
		seedOf: make(map[*types.Func]taintSeed),
		next:   make(map[*types.Func]CallEdge),
	}
	m.taint = tr

	// Seed collection, over every loaded module package (not just the
	// analyzed set: the whole point is seeing helpers elsewhere).
	for _, pkg := range m.Loader.Packages() {
		inBoundary := contains(m.Config.DeterministicPkgs, pkg.ImportPath)
		for _, f := range pkg.Files {
			inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
				desc := seedDesc(pkg.Info, n, stack)
				if desc == "" {
					return true
				}
				seed := taintSeed{pos: n.Pos(), desc: desc}
				if inBoundary {
					tr.sites[pkg.ImportPath] = append(tr.sites[pkg.ImportPath], seed)
				}
				if m.allowedAt(pkg, "determinism", m.Loader.Fset.Position(n.Pos())) {
					return true
				}
				// stack[0] is the file; a seed inside a function body has
				// its declaration at stack[1].
				if fd, ok := stack[1].(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						if _, seen := tr.seedOf[canonFunc(fn)]; !seen {
							tr.seedOf[canonFunc(fn)] = seed
						}
					}
				}
				return true
			})
		}
	}

	// Backward BFS from the seed functions over the caller index: a
	// function is tainted when it can reach a live seed through calls.
	var queue []*types.Func
	for fn := range tr.seedOf {
		queue = append(queue, fn)
	}
	// Deterministic expansion order for reproducible shortest paths.
	sortFuncs(queue)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range m.Graph.Callers[fn] {
			if tr.tainted(e.Caller) {
				continue
			}
			tr.next[e.Caller] = e
			queue = append(queue, e.Caller)
		}
	}
	return tr
}

func sortFuncs(fns []*types.Func) {
	for i := 1; i < len(fns); i++ {
		for j := i; j > 0 && funcKey(fns[j]) < funcKey(fns[j-1]); j-- {
			fns[j], fns[j-1] = fns[j-1], fns[j]
		}
	}
}

func runDeterminism(p *Pass) {
	if !contains(p.Config.DeterministicPkgs, p.ImportPath) {
		return
	}
	tr := p.Mod.taintFixpoint()
	for _, s := range tr.sites[p.ImportPath] {
		p.Reportf(s.pos, "%s in deterministic package %s: %s", s.desc, p.Pkg.Name(), seedAdvice(s.desc))
	}
	g := p.Mod.Graph
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fn = canonFunc(fn)
			for _, e := range g.Callees[fn] {
				calleePkg := g.PkgOf[e.Callee]
				if calleePkg == nil || contains(p.Config.DeterministicPkgs, calleePkg.ImportPath) {
					// Inside the boundary the seed is reported at its own site.
					continue
				}
				if !tr.tainted(e.Callee) {
					continue
				}
				hops, seed := tr.pathFrom(e.Callee)
				at := p.Fset.Position(e.Pos)
				via := ""
				if e.Dynamic {
					via = fmt.Sprintf(" (dynamic dispatch via %s)", FuncDisplay(e.Iface))
				}
				p.Reportf(e.Pos, "call to %s%s is determinism-tainted: reaches %s at %s%s; make the helper deterministic, or justify with //lint:allow determinism(reason) — pervalint -why %s:%d prints the path",
					FuncDisplay(e.Callee), via, seed.desc, shortPos(p.Fset.Position(seed.pos)), hopSummary(hops), filepath.Base(at.Filename), at.Line)
				tr.findings = append(tr.findings, TaintFinding{Pos: at, Caller: fn, Callee: e.Callee})
			}
		}
	}
}

// pathFrom walks the BFS tree from fn to its seed, returning the hop
// functions (fn first) and the seed.
func (tr *taintResult) pathFrom(fn *types.Func) ([]*types.Func, taintSeed) {
	var hops []*types.Func
	cur := fn
	for {
		hops = append(hops, cur)
		if seed, ok := tr.seedOf[cur]; ok {
			return hops, seed
		}
		e, ok := tr.next[cur]
		if !ok || len(hops) > 64 {
			// Unreachable for a tainted function; bail defensively.
			return hops, taintSeed{desc: "unknown"}
		}
		cur = e.Callee
	}
}

// hopSummary renders a compact " via a → b" suffix for multi-hop
// paths; the direct case (the callee itself holds the seed) is empty.
func hopSummary(hops []*types.Func) string {
	if len(hops) <= 1 {
		return ""
	}
	if len(hops) > 4 {
		return fmt.Sprintf(" via %d intermediate calls", len(hops)-1)
	}
	names := make([]string, 0, len(hops)-1)
	for _, fn := range hops[1:] {
		names = append(names, FuncDisplay(fn))
	}
	return " via " + strings.Join(names, " → ")
}

func shortPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// ExplainTaint renders the full call-graph path for the boundary
// crossing reported at (file, line) — file matched by suffix, so a
// repo-relative or bare filename works. It returns one rendered line per
// hop, or nil when no finding matches.
func (r *Result) ExplainTaint(file string, line int) []string {
	if r.Mod == nil || r.Mod.taint == nil {
		return nil
	}
	tr := r.Mod.taint
	fset := r.Mod.Loader.Fset
	for _, f := range tr.findings {
		if f.Pos.Line != line || !suffixMatch(f.Pos.Filename, file) {
			continue
		}
		out := []string{fmt.Sprintf("%s: %s calls %s",
			shortPos(f.Pos), FuncDisplay(f.Caller), FuncDisplay(f.Callee))}
		hops, seed := tr.pathFrom(f.Callee)
		for i, fn := range hops {
			if i == len(hops)-1 {
				out = append(out, fmt.Sprintf("  %s: %s contains %s (seed)",
					shortPos(fset.Position(seed.pos)), FuncDisplay(fn), seed.desc))
				break
			}
			e := tr.next[fn]
			out = append(out, fmt.Sprintf("  %s: %s calls %s",
				shortPos(fset.Position(e.Pos)), FuncDisplay(fn), FuncDisplay(e.Callee)))
		}
		return out
	}
	return nil
}

func suffixMatch(full, suffix string) bool {
	full = filepath.ToSlash(full)
	suffix = filepath.ToSlash(suffix)
	if full == suffix || strings.HasSuffix(full, "/"+suffix) {
		return true
	}
	return filepath.Base(full) == suffix
}

// collectThenSorted reports whether the map range is the sanctioned
// collect-then-sort idiom: every statement in the body appends into the
// same collector, and the enclosing function later passes that
// collector to a sort call.
func collectThenSorted(info *types.Info, rs *ast.RangeStmt, stack []ast.Node) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	var target types.Object
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltinAppend(info, call) {
			return false
		}
		obj := lvalueObject(info, as.Lhs[0])
		if obj == nil {
			return false
		}
		if target == nil {
			target = obj
		} else if target != obj {
			return false
		}
	}
	if target == nil {
		return false
	}
	// Find the enclosing function body and look for a later sort call
	// over the collector.
	var fnBody *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			fnBody = fn.Body
		case *ast.FuncLit:
			fnBody = fn.Body
		}
		if fnBody != nil {
			break
		}
	}
	if fnBody == nil {
		return false
	}
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if pp := fn.Pkg().Path(); pp != "sort" && pp != "slices" {
			return true
		}
		for _, arg := range call.Args {
			found := false
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.Uses[id] == target {
					found = true
				}
				if sel, ok := a.(*ast.SelectorExpr); ok {
					if s := info.Selections[sel]; s != nil && s.Obj() == target {
						found = true
					}
				}
				return !found
			})
			if found {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	bi, ok := info.Uses[id].(*types.Builtin)
	return ok && bi.Name() == "append"
}

// lvalueObject resolves the assigned-to expression to its canonical
// object: the variable for an identifier, the field for a selector.
func lvalueObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if s := info.Selections[e]; s != nil {
			return s.Obj()
		}
	}
	return nil
}
