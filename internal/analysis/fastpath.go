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
// guarantee of the fault layer, rest on it). Two checks:
//
//  1. no registry lookups in hot loops: Registry.Counter/Gauge/
//     Histogram resolve through a string-keyed map under a lock;
//     engines must resolve instruments once and hold the pointer, not
//     look them up per iteration.
//  2. no typed-nil interface wrapping: storing a possibly-nil *Counter
//     (etc.) into a non-empty interface yields an interface that
//     compares non-nil, defeating every nil check downstream.
//
// That every exported method of the no-op types is safe on the nil
// receiver is a test, not a rule: TestNoopTypesAreNilSafe calls each one.
var FastPath = &Analyzer{
	Name: "fastpath",
	Doc:  "no registry lookups in hot loops, no typed-nil interface wrapping of the no-op instrument types",
	Run:  runFastPath,
}

func runFastPath(p *Pass) {
	if contains(p.Config.HotPkgs, p.ImportPath) {
		checkHotLookups(p)
	}
	checkTypedNil(p)
}

// ---- check 1: registry lookups in hot loops ----

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
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := namedType(derefType(sig.Recv().Type())); n == nil || n.Obj().Name() != "Registry" {
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
	helperLookups := p.Mod.registryLookupFuncs()
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

// ---- check 2: typed-nil interface wrapping ----

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
