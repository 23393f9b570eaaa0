package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath turns the repo's "0 allocs/op" bench claims into a lint-time
// proof: for the configured kernel roots (Config.HotFuncs — the DES
// schedule/step, the strobe stamp/merge kernels, the incremental clause
// evaluator's update, the workload codec primitives) it computes the
// transitive call closure over the module call graph (interface
// dispatch resolved through the implements-sets, a generic function's
// calls, explicitly instantiated or not, to its one declaration) and flags
// every allocation-inducing construct anywhere in that closure:
//
//   - escaping composite literals (&T{...}) and new/make
//   - append (growth allocates; amortized-growth sites carry allows)
//   - string concatenation and string<->[]byte/[]rune conversions
//   - interface boxing of non-pointer-shaped values (fmt's variadic
//     ...any included)
//   - closure captures (a capturing func literal heap-allocates its
//     environment), and calls into fmt (always allocating)
//
// The benches catch a regression after the fact, on the machines that
// run them; this analyzer rejects the commit. Cold paths inside a hot
// function — panic guards, amortized growth, one-time setup — are
// justified in place with //lint:allow hotpath(reason).
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag allocation-inducing constructs in the configured kernel functions and everything they transitively call",
	Run:  runHotPath,
}

// hotResult is the memoized closure: every module function reachable
// from a hot root, mapped to one root it serves (for diagnostics).
type hotResult struct {
	rootOf   map[*types.Func]*types.Func
	resolved map[string]bool // HotFuncs entries that matched a function
}

func (m *Module) hotClosure() *hotResult {
	if m.hot != nil {
		return m.hot
	}
	hr := &hotResult{
		rootOf:   make(map[*types.Func]*types.Func),
		resolved: make(map[string]bool),
	}
	m.hot = hr
	g := m.Graph
	for _, qual := range m.Config.HotFuncs {
		root := g.FuncByName(qual)
		if root == nil {
			continue
		}
		hr.resolved[qual] = true
		for fn := range g.Reachable([]*types.Func{root}) {
			if _, claimed := hr.rootOf[fn]; !claimed {
				hr.rootOf[fn] = root
			}
		}
	}
	return hr
}

func runHotPath(p *Pass) {
	if len(p.Config.HotFuncs) == 0 {
		return
	}
	hr := p.Mod.hotClosure()
	// A HotFuncs entry that resolves to nothing is a config bug (a
	// renamed kernel silently un-proves the invariant); report it once,
	// from the package the qualified name points into.
	for _, qual := range p.Config.HotFuncs {
		if !hr.resolved[qual] && qualifiedPkg(qual) == p.ImportPath && len(p.Files) > 0 {
			p.Reportf(p.Files[0].Name.Pos(), "hotpath config names %s, which does not resolve to a declared function: fix Config.HotFuncs after renaming a kernel", qual)
			hr.resolved[qual] = true // once is enough
		}
	}
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
			root, hot := hr.rootOf[canonFunc(fn)]
			if !hot {
				continue
			}
			checkHotBody(p, fd, root)
		}
	}
}

// qualifiedPkg strips the trailing one or two dotted components
// (Func or Type.Method) off a HotFuncs entry, leaving the import path.
func qualifiedPkg(qual string) string {
	// The import path itself contains slashes but no dots in this
	// repo; cut at the first dot after the last slash.
	slash := -1
	for i := len(qual) - 1; i >= 0; i-- {
		if qual[i] == '/' {
			slash = i
			break
		}
	}
	for i := slash + 1; i < len(qual); i++ {
		if qual[i] == '.' {
			return qual[:i]
		}
	}
	return qual
}

func checkHotBody(p *Pass, fd *ast.FuncDecl, root *types.Func) {
	where := func() string { return FuncDisplay(root) }
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					p.Reportf(n.Pos(), "escaping composite literal (&T{...}) allocates on the hot path of %s: reuse a scratch value or justify with //lint:allow hotpath(reason)", where())
				}
			}
		case *ast.FuncLit:
			if captured := closureCaptures(p, n); captured != "" {
				p.Reportf(n.Pos(), "closure capturing %s allocates its environment on the hot path of %s: hoist the closure or pass state explicitly, or justify with //lint:allow hotpath(reason)", captured, where())
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := p.TypeOf(n.X); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						p.Reportf(n.Pos(), "string concatenation allocates on the hot path of %s: use an appended []byte scratch buffer, or justify with //lint:allow hotpath(reason)", where())
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(p, n, where)
		}
		return true
	})
}

func checkHotCall(p *Pass, call *ast.CallExpr, where func() string) {
	fun := ast.Unparen(call.Fun)
	// Builtins: new, make, append.
	if id, ok := fun.(*ast.Ident); ok {
		if bi, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch bi.Name() {
			case "new", "make":
				p.Reportf(call.Pos(), "%s allocates on the hot path of %s: preallocate outside the kernel, or justify with //lint:allow hotpath(reason)", bi.Name(), where())
			case "append":
				p.Reportf(call.Pos(), "append may grow and allocate on the hot path of %s: preallocate capacity (amortized-growth sites get //lint:allow hotpath(reason))", where())
			}
			return
		}
	}
	// Conversions to string or to a slice (string<->[]byte/[]rune).
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		if target := tv.Type.Underlying(); len(call.Args) == 1 {
			argT := p.TypeOf(call.Args[0])
			switch target.(type) {
			case *types.Basic:
				if target.(*types.Basic).Info()&types.IsString != 0 && argT != nil {
					if _, fromSlice := argT.Underlying().(*types.Slice); fromSlice {
						p.Reportf(call.Pos(), "[]byte->string conversion copies and allocates on the hot path of %s (//lint:allow hotpath(reason) if cold)", where())
					}
				}
			case *types.Slice:
				if argT != nil {
					if b, ok := argT.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						p.Reportf(call.Pos(), "string->slice conversion copies and allocates on the hot path of %s (//lint:allow hotpath(reason) if cold)", where())
					}
				}
			}
		}
		return
	}
	// fmt always allocates (boxing plus formatting buffers).
	if fn := calleeFunc(p.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		p.Reportf(call.Pos(), "fmt.%s allocates on the hot path of %s: format off the kernel, or justify a cold path (panic message) with //lint:allow hotpath(reason)", fn.Name(), where())
	}
	// Interface boxing at argument positions.
	sig, ok := types.Unalias(p.TypeOf(call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		} else if i < sig.Params().Len() {
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := p.TypeOf(arg)
		if at == nil || boxFree(at) {
			continue
		}
		p.Reportf(arg.Pos(), "interface boxing of %s allocates on the hot path of %s: pass a pointer or keep the call monomorphic, or justify with //lint:allow hotpath(reason)", at.String(), where())
	}
}

// boxFree reports whether storing a value of type t in an interface
// needs no allocation: pointer-shaped single-word types (pointers,
// channels, maps, funcs, unsafe.Pointer), values already behind an
// interface, and untyped nil.
func boxFree(t types.Type) bool {
	switch types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		b := types.Unalias(t).Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer || b.Kind() == types.UntypedNil
	}
	return false
}

// closureCaptures returns the name of a variable the literal captures
// from its enclosing function ("" when it captures nothing). Captured
// means: used inside, declared outside the literal, not package-level,
// and not a struct field reached through a captured receiver (the
// receiver itself is the capture then).
func closureCaptures(p *Pass, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal (params included)
		}
		if v.Parent() == p.Pkg.Scope() {
			return true // package-level variable, not a capture
		}
		captured = v.Name()
		return false
	})
	return captured
}
