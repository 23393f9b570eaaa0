package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ClockRule enforces the paper's clock rules structurally: the state
// carried by the clock types (the scalar counter of SSC clocks, the
// vector of SVC/VC clocks, the physical-vector components) may only be
// mutated inside the rule applications themselves — SVC1/SVC2,
// SSC1/SSC2, SC1–SC3, VC1–VC3, realized as the Strobe / OnStrobe /
// Tick / Send / Receive (+ MergeFrom, Reset) methods — and inside New*
// constructors. Any other write, inside or outside the clock package,
// is a protocol violation: engines must advance clocks by applying
// rules, never by reaching into their state.
//
// Clock state is derived structurally: every struct in ClockPkg with at
// least one unexported field (the rule-governed clocks), plus every
// named slice type used as such a field (clock.Vector). Exported-field
// structs (Drifting, EpsilonSynced) are configuration, not rule state.
//
// Sanctioned writers extend transitively over the call graph: an
// unexported clock-package helper every one of whose callers is itself
// sanctioned (rule method, constructor, or another such helper) is a
// rule application by delegation — splitting Strobe's body into
// helpers must not force allow annotations onto each fragment.
var ClockRule = &Analyzer{
	Name: "clockrule",
	Doc:  "clock state may only be written by the SVC/SSC/VC/SC rule methods and constructors",
	Run:  runClockRule,
}

func runClockRule(p *Pass) {
	if p.Config.ClockPkg == "" {
		return
	}
	clockPkg, err := p.Dep(p.Config.ClockPkg)
	if err != nil {
		return // the clock package itself failed to load; nothing to enforce against
	}
	stateStructs, stateSlices := clockStateTypes(clockPkg)
	if len(stateStructs) == 0 && len(stateSlices) == 0 {
		return
	}
	inClockPkg := p.ImportPath == p.Config.ClockPkg

	for _, f := range p.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			var lhs []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				lhs = n.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{n.X}
			default:
				return true
			}
			var curFunc *ast.FuncDecl
			for i := len(stack) - 1; i >= 0 && curFunc == nil; i-- {
				if fd, ok := stack[i].(*ast.FuncDecl); ok {
					curFunc = fd
				}
			}
			for _, e := range lhs {
				kind := clockStateWrite(p, e, stateStructs, stateSlices)
				if kind == "" {
					continue
				}
				if inClockPkg && allowedClockWriter(p, curFunc) {
					continue
				}
				if inClockPkg {
					p.Reportf(e.Pos(), "clock %s written outside the rule methods (%s) and constructors: apply a rule instead", kind, strings.Join(p.Config.ClockRuleFuncs, "/"))
				} else {
					p.Reportf(e.Pos(), "clock %s written outside %s: engines must advance clocks through the rule methods (%s), never by mutating state", kind, p.Config.ClockPkg, strings.Join(p.Config.ClockRuleFuncs, "/"))
				}
			}
			return true
		})
	}
}

// clockStateTypes derives the rule-governed state types from the clock
// package: structs with unexported fields, and named slice types that
// appear as fields of those structs.
func clockStateTypes(pkg *types.Package) (structs map[*types.Named]bool, slices map[*types.Named]bool) {
	structs = make(map[*types.Named]bool)
	slices = make(map[*types.Named]bool)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named := namedType(tn.Type())
		if named == nil {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		hasUnexported := false
		for i := 0; i < st.NumFields(); i++ {
			if !st.Field(i).Exported() {
				hasUnexported = true
			}
		}
		if hasUnexported {
			structs[named] = true
		}
	}
	for named := range structs {
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			ft := namedType(st.Field(i).Type())
			if ft == nil || ft.Obj().Pkg() == nil || ft.Obj().Pkg().Path() != pkg.Path() {
				continue
			}
			if _, ok := ft.Underlying().(*types.Slice); ok {
				slices[ft] = true
			}
			if _, ok := ft.Underlying().(*types.Map); ok {
				slices[ft] = true
			}
		}
	}
	return structs, slices
}

// clockStateWrite reports whether assigning to e mutates clock state,
// returning a short description of what is written ("" if not).
// It peels the lvalue: an index into a value of a state slice type, or
// a selector naming a field of a state struct, is a state write.
func clockStateWrite(p *Pass, e ast.Expr, stateStructs, stateSlices map[*types.Named]bool) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			if n := namedType(p.TypeOf(x.X)); n != nil && stateSlices[baseNamed(n)] {
				return "vector component (" + n.Obj().Name() + ")"
			}
			e = x.X
		case *ast.SelectorExpr:
			if s := p.Info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				if owner := fieldOwner(s); owner != nil && stateStructs[baseNamed(owner)] {
					return "state field " + owner.Obj().Name() + "." + s.Obj().Name()
				}
			}
			e = x.X
		default:
			return ""
		}
	}
}

// baseNamed canonicalizes a named type to its origin (no-op without
// generics, which the clock package does not use).
func baseNamed(n *types.Named) *types.Named { return n.Origin() }

// fieldOwner returns the named struct type that declares the selected
// field, following the selection's receiver.
func fieldOwner(s *types.Selection) *types.Named {
	t := s.Recv()
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return namedType(t)
}

// allowedClockWriter reports whether fd (in the clock package) is a
// sanctioned mutator: a New* constructor, one of the rule methods, or
// an unexported helper reached only from sanctioned writers (computed
// as a fixpoint over the module call graph).
func allowedClockWriter(p *Pass, fd *ast.FuncDecl) bool {
	if fd == nil {
		return false // package-level var initializer
	}
	if directClockWriter(p.Config, fd.Name.Name, fd.Recv != nil) {
		return true
	}
	fn, ok := p.Info.Defs[fd.Name].(*types.Func)
	return ok && p.Mod.clockSanctioned()[canonFunc(fn)]
}

// directClockWriter is the non-graph base case: constructors and the
// configured rule methods.
func directClockWriter(cfg Config, name string, isMethod bool) bool {
	if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") {
		return true
	}
	return isMethod && contains(cfg.ClockRuleFuncs, name)
}

// clockSanctioned computes (memoized) the transitive sanctioned-writer
// set: seeded with the rule methods and constructors of the clock
// package, then extended to every unexported clock-package function
// whose callers — it must have at least one — are all sanctioned.
// Exported helpers never qualify: anything callable from outside the
// package is not a rule fragment.
func (m *Module) clockSanctioned() map[*types.Func]bool {
	if m.clockSanct != nil {
		return m.clockSanct
	}
	s := make(map[*types.Func]bool)
	m.clockSanct = s
	g := m.Graph
	clockPath := m.Config.ClockPkg
	inClock := func(fn *types.Func) bool {
		return fn.Pkg() != nil && fn.Pkg().Path() == clockPath
	}
	for fn, fd := range g.DeclOf {
		if inClock(fn) && directClockWriter(m.Config, fn.Name(), fd.Recv != nil) {
			s[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range g.DeclOf {
			if s[fn] || !inClock(fn) || fn.Exported() {
				continue
			}
			callers := g.Callers[fn]
			if len(callers) == 0 {
				continue
			}
			all := true
			for _, e := range callers {
				if !s[e.Caller] {
					all = false
					break
				}
			}
			if all {
				s[fn] = true
				changed = true
			}
		}
	}
	return s
}
