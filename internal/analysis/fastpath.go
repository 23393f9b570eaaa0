package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FastPath guards the zero-cost-when-disabled contract of the obs and
// faults layers (the <5% kernel-overhead budget behind `make bench-obs`
// and cmd/bench's obs.overhead_pct, and the no-plan ≡ empty-plan
// guarantee of the fault layer, rest on it). Three checks:
//
//  1. nil-receiver discipline: every exported method of the no-op
//     instrument types (obs.Counter/Gauge/Histogram/LocalHist/Registry/
//     Span, faults.Injector) must begin with a nil guard, or consist
//     purely of delegation to other methods of the same receiver —
//     obs.Noop and the nil Injector are the disabled fast path, and an
//     unguarded method turns "instrumentation off" into a panic.
//  2. no registry lookups in hot loops: Registry.Counter/Gauge/
//     Histogram resolve through a string-keyed map under a lock;
//     engines must resolve instruments once and hold the pointer, not
//     look them up per iteration.
//  3. no typed-nil interface wrapping: storing a possibly-nil *Counter
//     (etc.) into a non-empty interface yields an interface that
//     compares non-nil, defeating every nil check downstream.
var FastPath = &Analyzer{
	Name: "fastpath",
	Doc:  "nil-receiver no-op discipline, no registry lookups in hot loops, no typed-nil interface wrapping",
	Run:  runFastPath,
}

func runFastPath(p *Pass) {
	if names, ok := p.Config.NoopTypes[p.ImportPath]; ok {
		checkNilGuards(p, names)
	}
	if contains(p.Config.HotPkgs, p.ImportPath) {
		checkHotLookups(p)
	}
	checkTypedNil(p)
}

// ---- check 1: nil-receiver guards ----

func checkNilGuards(p *Pass, noopNames []string) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			if !contains(noopNames, recvBaseName(fd)) {
				continue
			}
			recv := recvIdent(fd)
			if recv == nil {
				continue // unnamed receiver cannot be dereferenced
			}
			recvObj := p.Info.Defs[recv]
			if startsWithNilGuard(p, fd.Body, recvObj) || pureDelegation(p, fd.Body, recvObj) {
				continue
			}
			p.Reportf(fd.Name.Pos(), "method %s.%s must start with a nil-receiver guard: the nil %s is the disabled no-op fast path", recvBaseName(fd), fd.Name.Name, recvBaseName(fd))
		}
	}
}

func recvIdent(fd *ast.FuncDecl) *ast.Ident {
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	return names[0]
}

// startsWithNilGuard reports whether the body's first statement tests
// the receiver (or a field of it) against nil — either an if statement
// or a single comparison return like `return r != nil`.
func startsWithNilGuard(p *Pass, body *ast.BlockStmt, recv types.Object) bool {
	if len(body.List) == 0 {
		return false
	}
	switch first := body.List[0].(type) {
	case *ast.IfStmt:
		return exprHasNilCompare(p, first.Cond, recv)
	case *ast.ReturnStmt:
		for _, r := range first.Results {
			if exprHasNilCompare(p, r, recv) {
				return true
			}
		}
	}
	return false
}

// exprHasNilCompare reports whether e contains `x == nil` or `x != nil`
// where x mentions the receiver.
func exprHasNilCompare(p *Pass, e ast.Expr, recv types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return !found
		}
		var other ast.Expr
		if isNilIdent(p, be.X) {
			other = be.Y
		} else if isNilIdent(p, be.Y) {
			other = be.X
		} else {
			return !found
		}
		ast.Inspect(other, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && p.Info.Uses[id] == recv {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

func isNilIdent(p *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.Info.Uses[id].(*types.Nil)
	return isNil
}

// pureDelegation reports whether every use of the receiver in the body
// is either a nil comparison or a method call/selection on the receiver
// — such methods are nil-safe because the methods they delegate to are
// themselves checked (e.g. Registry.Handler).
func pureDelegation(p *Pass, body *ast.BlockStmt, recv types.Object) bool {
	ok := true
	inspectStack(body, func(n ast.Node, stack []ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || p.Info.Uses[id] != recv {
			return ok
		}
		parent := stack[len(stack)-1]
		if sel, isSel := parent.(*ast.SelectorExpr); isSel && sel.X == id {
			if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				return ok // method call on the receiver: delegation
			}
			ok = false // field access: a deref that nil would crash
			return false
		}
		if be, isCmp := parent.(*ast.BinaryExpr); isCmp && (be.Op == token.EQL || be.Op == token.NEQ) {
			if isNilIdent(p, be.X) || isNilIdent(p, be.Y) {
				return ok // nil comparison
			}
		}
		ok = false
		return false
	})
	return ok
}

// ---- check 2: registry lookups in hot loops ----

// registryLookupName classifies call as a Registry.Counter/Gauge/
// Histogram lookup, returning the method name or "".
func registryLookupName(info *types.Info, call *ast.CallExpr, obsPkg string) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkg {
		return ""
	}
	if fn.Name() != "Counter" && fn.Name() != "Gauge" && fn.Name() != "Histogram" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !typeInPtr(sig.Recv().Type(), obsPkg, "Registry") {
		return ""
	}
	return fn.Name()
}

// registryLookupFuncs computes (memoized) the module functions whose
// bodies perform a registry lookup — the helpers that make an innocent-
// looking call in a loop a per-iteration string-keyed map access one
// frame down. Setup-shaped functions (New*/Set*/Init*, and everything
// in the obs package itself) are exempt: resolving instruments inside a
// constructor's loop is exactly the once-and-hold pattern the check
// wants.
func (m *Module) registryLookupFuncs() map[*types.Func]string {
	if m.regLookups != nil {
		return m.regLookups
	}
	out := make(map[*types.Func]string)
	m.regLookups = out
	obsPkg := m.Config.ObsPkg
	if obsPkg == "" {
		return out
	}
	g := m.Graph
	for fn, fd := range g.DeclOf {
		if fn.Pkg() != nil && fn.Pkg().Path() == obsPkg {
			continue
		}
		if isSetupName(fn.Name()) {
			continue
		}
		pkg := g.PkgOf[fn]
		if pkg == nil || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if out[fn] != "" {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if name := registryLookupName(pkg.Info, call, obsPkg); name != "" {
					out[fn] = name
				}
			}
			return true
		})
	}
	return out
}

func isSetupName(name string) bool {
	for _, prefix := range []string{"New", "new", "Set", "Init", "init"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func checkHotLookups(p *Pass) {
	if p.Config.ObsPkg == "" || p.ImportPath == p.Config.ObsPkg {
		return
	}
	var helperLookups map[*types.Func]string
	if p.Mod != nil && p.Mod.Graph != nil {
		helperLookups = p.Mod.registryLookupFuncs()
	}
	for _, f := range p.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			direct := registryLookupName(p.Info, call, p.Config.ObsPkg)
			var viaHelper *types.Func
			helperMethod := ""
			if direct == "" {
				fn := calleeFunc(p.Info, call)
				if fn == nil {
					return true
				}
				fn = canonFunc(fn)
				if m := helperLookups[fn]; m != "" {
					viaHelper, helperMethod = fn, m
				} else {
					return true
				}
			}
			// Walk ancestors to the nearest function boundary; a for or
			// range statement in between makes this a per-iteration
			// string-keyed map lookup (possibly one call frame down).
			for i := len(stack) - 1; i >= 0; i-- {
				switch stack[i].(type) {
				case *ast.FuncLit, *ast.FuncDecl:
					return true
				case *ast.ForStmt, *ast.RangeStmt:
					if direct != "" {
						p.Reportf(call.Pos(), "registry lookup Registry.%s inside a loop: resolve the instrument once before the loop and hold the pointer (string-keyed lookup under a lock is not hot-path safe)", direct)
					} else {
						p.Reportf(call.Pos(), "call to %s inside a loop performs a registry lookup (Registry.%s) one frame down: resolve the instrument once before the loop and hold the pointer", FuncDisplay(viaHelper), helperMethod)
					}
					return true
				}
			}
			return true
		})
	}
}

func typeInPtr(t types.Type, pkgPath string, name string) bool {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return typeIn(t, pkgPath, name)
}

// ---- check 3: typed-nil interface wrapping ----

func checkTypedNil(p *Pass) {
	noopPtr := func(t types.Type) (string, bool) {
		ptr, ok := types.Unalias(t).(*types.Pointer)
		if !ok {
			return "", false
		}
		n := namedType(ptr.Elem())
		if n == nil || n.Obj().Pkg() == nil {
			return "", false
		}
		names, ok := p.Config.NoopTypes[n.Obj().Pkg().Path()]
		if !ok || !contains(names, n.Obj().Name()) {
			return "", false
		}
		return n.Obj().Name(), true
	}
	isNonEmptyIface := func(t types.Type) bool {
		if t == nil {
			return false
		}
		iface, ok := t.Underlying().(*types.Interface)
		return ok && iface.NumMethods() > 0
	}
	report := func(pos token.Pos, typeName string, ifaceType types.Type) {
		p.Reportf(pos, "possibly-nil *%s stored in non-empty interface %s: a typed-nil interface compares non-nil and defeats the nil fast path", typeName, ifaceType.String())
	}
	for _, f := range p.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					lt := p.TypeOf(n.Lhs[i])
					if name, ok := noopPtr(p.TypeOf(rhs)); ok && isNonEmptyIface(lt) {
						report(rhs.Pos(), name, lt)
					}
				}
			case *ast.ValueSpec:
				if n.Type == nil {
					return true
				}
				lt := p.TypeOf(n.Type)
				if !isNonEmptyIface(lt) {
					return true
				}
				for _, v := range n.Values {
					if name, ok := noopPtr(p.TypeOf(v)); ok {
						report(v.Pos(), name, lt)
					}
				}
			case *ast.CallExpr:
				sig, ok := types.Unalias(p.TypeOf(n.Fun)).(*types.Signature)
				if !ok {
					return true
				}
				for i, arg := range n.Args {
					var pt types.Type
					if sig.Variadic() && i >= sig.Params().Len()-1 {
						if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
							pt = s.Elem()
						}
					} else if i < sig.Params().Len() {
						pt = sig.Params().At(i).Type()
					}
					if name, ok := noopPtr(p.TypeOf(arg)); ok && isNonEmptyIface(pt) {
						report(arg.Pos(), name, pt)
					}
				}
			case *ast.ReturnStmt:
				sig := enclosingSignature(p, stack)
				if sig == nil {
					return true
				}
				for i, r := range n.Results {
					if i >= sig.Results().Len() {
						break
					}
					rt := sig.Results().At(i).Type()
					if name, ok := noopPtr(p.TypeOf(r)); ok && isNonEmptyIface(rt) {
						report(r.Pos(), name, rt)
					}
				}
			}
			return true
		})
	}
}

// enclosingSignature returns the signature of the innermost function
// containing the node whose ancestors are stack.
func enclosingSignature(p *Pass, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			sig, _ := types.Unalias(p.TypeOf(fn)).(*types.Signature)
			return sig
		case *ast.FuncDecl:
			if obj, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
				sig, _ := obj.Type().(*types.Signature)
				return sig
			}
			return nil
		}
	}
	return nil
}
