package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CallGraph is the module-wide call graph, built once per pervalint run
// over every loaded package and shared by all analyzers through
// Pass.Mod. Nodes are the module's declared functions and methods
// (*types.Func, canonicalized through Origin); edges are call sites.
//
// Resolution is static-first: a direct call to a package function or a
// concrete method is one edge. A call through an interface method is
// resolved against the module's implements-sets — one edge per module
// type whose method set satisfies the interface, marked Dynamic — so
// taint and allocation analyses see through the repo's deliberate
// seams (sim.DelayModel, clock.VectorState, workload.Source, ...).
// Calls through plain function values (fields, parameters) are not
// resolvable without dataflow and are deliberately out of scope; the
// repo's invariant-bearing indirection is interface-shaped.
type CallGraph struct {
	Fset *token.FileSet

	// Callees maps a function to its outgoing call edges, in source
	// order. Callers is the reverse index.
	Callees map[*types.Func][]CallEdge
	Callers map[*types.Func][]CallEdge

	// DeclOf maps a module function to its declaration; PkgOf to the
	// loaded package declaring it. Functions without a body (external
	// linkage, which the module does not use) are absent.
	DeclOf map[*types.Func]*ast.FuncDecl
	PkgOf  map[*types.Func]*Package

	// Stats, for pervalint -graph.
	NumFuncs        int // module functions with bodies
	NumStaticEdges  int
	NumDynamicEdges int // interface-call edges after implements-set resolution
	NumIfaceSites   int // interface call sites resolved
	NumUnresolved   int // calls through plain function values (no edge)
}

// CallEdge is one call site: Caller invokes Callee at Pos. Dynamic
// marks an interface-dispatch edge resolved via the implements-sets;
// Iface then names the interface method the source actually calls.
type CallEdge struct {
	Caller  *types.Func
	Callee  *types.Func
	Pos     token.Pos
	Dynamic bool
	Iface   *types.Func
}

// BuildCallGraph constructs the graph over pkgs (normally every
// module-local package the loader has seen). Bodies of function
// literals are attributed to the declaration lexically enclosing them:
// a call made inside a closure is an edge out of the declaring
// function, which is the right granularity for reachability analyses.
func BuildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Fset:    fset,
		Callees: make(map[*types.Func][]CallEdge),
		Callers: make(map[*types.Func][]CallEdge),
		DeclOf:  make(map[*types.Func]*ast.FuncDecl),
		PkgOf:   make(map[*types.Func]*Package),
	}
	// Deterministic package order regardless of load order.
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })

	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn = canonFunc(fn)
				g.DeclOf[fn] = fd
				g.PkgOf[fn] = pkg
				g.NumFuncs++
			}
		}
	}
	impls := buildImplementsSets(sorted, g)
	for fn, fd := range g.DeclOf {
		g.addEdges(fn, fd, g.PkgOf[fn], impls)
	}
	// Source-order edges make path output and tests reproducible.
	for fn := range g.Callees {
		es := g.Callees[fn]
		sort.Slice(es, func(i, j int) bool { return es[i].Pos < es[j].Pos })
	}
	for fn := range g.Callers {
		es := g.Callers[fn]
		sort.Slice(es, func(i, j int) bool { return es[i].Pos < es[j].Pos })
	}
	return g
}

// canonFunc canonicalizes a method of an instantiated generic type to
// its origin declaration (a no-op for ordinary functions).
func canonFunc(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// implSets indexes, per interface method, the concrete module methods
// that can stand behind it.
type implSets struct {
	// byIfaceMethod maps an interface's *types.Func (the abstract
	// method object) to the concrete implementations.
	byIfaceMethod map[*types.Func][]*types.Func
	numPairs      int
}

// buildImplementsSets computes, for every interface type declared in
// the module, the set of module-declared named types implementing it,
// and resolves each interface method to the concrete methods.
func buildImplementsSets(pkgs []*Package, g *CallGraph) *implSets {
	type ifaceInfo struct {
		iface *types.Interface
		tn    *types.TypeName
	}
	var ifaces []ifaceInfo
	var concrete []*types.TypeName
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := namedType(tn.Type())
			if named == nil {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, ifaceInfo{iface, tn})
				}
				continue
			}
			concrete = append(concrete, tn)
		}
	}
	sets := &implSets{byIfaceMethod: make(map[*types.Func][]*types.Func)}
	for _, ii := range ifaces {
		for _, tn := range concrete {
			t := tn.Type()
			var impl types.Type
			switch {
			case types.Implements(t, ii.iface):
				impl = t
			case types.Implements(types.NewPointer(t), ii.iface):
				impl = types.NewPointer(t)
			default:
				continue
			}
			sets.numPairs++
			for i := 0; i < ii.iface.NumMethods(); i++ {
				am := ii.iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(impl, true, am.Pkg(), am.Name())
				cm, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				cm = canonFunc(cm)
				if _, declared := g.DeclOf[cm]; !declared {
					continue // embedded method from outside the module
				}
				sets.byIfaceMethod[am] = append(sets.byIfaceMethod[am], cm)
			}
		}
	}
	for am := range sets.byIfaceMethod {
		ms := sets.byIfaceMethod[am]
		sort.Slice(ms, func(i, j int) bool { return funcKey(ms[i]) < funcKey(ms[j]) })
	}
	return sets
}

// funcKey is a stable sort key: "pkgpath.Recv.Name" / "pkgpath.Name".
func funcKey(fn *types.Func) string {
	key := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedType(derefType(sig.Recv().Type())); n != nil {
			key = n.Obj().Name() + "." + key
		}
	}
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "." + key
	}
	return key
}

func derefType(t types.Type) types.Type {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// addEdges walks fn's body (closures included) and records every call.
func (g *CallGraph) addEdges(fn *types.Func, fd *ast.FuncDecl, pkg *Package, impls *implSets) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pkg.Info, call)
		if callee == nil {
			// Conversions and builtins also land here; only count a
			// genuine function-value call as unresolved.
			if isFuncValueCall(pkg.Info, call) {
				g.NumUnresolved++
			}
			return true
		}
		callee = canonFunc(callee)
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				// Interface dispatch: fan out to the implements-set.
				g.NumIfaceSites++
				for _, cm := range impls.byIfaceMethod[callee] {
					g.link(CallEdge{Caller: fn, Callee: cm, Pos: call.Pos(), Dynamic: true, Iface: callee})
					g.NumDynamicEdges++
				}
				return true
			}
		}
		if _, declared := g.DeclOf[callee]; declared {
			g.link(CallEdge{Caller: fn, Callee: callee, Pos: call.Pos()})
			g.NumStaticEdges++
		}
		return true
	})
}

func (g *CallGraph) link(e CallEdge) {
	g.Callees[e.Caller] = append(g.Callees[e.Caller], e)
	g.Callers[e.Callee] = append(g.Callers[e.Callee], e)
}

// isFuncValueCall reports whether call invokes a plain function value
// (a variable, field, or parameter of function type) — the dispatch
// shape the graph cannot resolve statically.
func isFuncValueCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	tv, ok := info.Types[fun]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	if !isSig {
		return false
	}
	switch f := fun.(type) {
	case *ast.Ident:
		_, isVar := info.Uses[f].(*types.Var)
		return isVar
	case *ast.SelectorExpr:
		_, isVar := info.Uses[f.Sel].(*types.Var)
		return isVar
	case *ast.FuncLit:
		return false // immediately-invoked literal: body walked in place
	}
	return true
}

// FuncByName resolves "pkgpath.Func" or "pkgpath.Type.Method" (pointer
// receivers match too) to the graph node, or nil.
func (g *CallGraph) FuncByName(qual string) *types.Func {
	for fn := range g.DeclOf {
		if funcKey(fn) == qual {
			return fn
		}
	}
	return nil
}

// Reachable returns the transitive-callee closure of roots (roots
// included), as a set.
func (g *CallGraph) Reachable(roots []*types.Func) map[*types.Func]bool {
	seen := make(map[*types.Func]bool)
	var stack []*types.Func
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Callees[fn] {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				stack = append(stack, e.Callee)
			}
		}
	}
	return seen
}

// FuncDisplay renders fn for diagnostics: "pkg.Func" or
// "pkg.(*Type).Method" with the short package name.
func FuncDisplay(fn *types.Func) string {
	if fn == nil {
		return "<nil>"
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if ptr, ok := types.Unalias(rt).(*types.Pointer); ok {
			if n := namedType(ptr.Elem()); n != nil {
				name = "(*" + n.Obj().Name() + ")." + name
			}
		} else if n := namedType(rt); n != nil {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
