package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// TestOnly reports every function, method and struct field declared in
// a non-test file under internal/ that no entry point reaches: a main or
// init; the root package's exported declarations and the exported
// methods and fields of the types it exports (aliases included); a
// method matching a method of an interface from outside the module
// (String, Error, Less, ...), once its receiver type appears in reached
// code; or a declaration waived with //lint:allow testonly(reason), whose
// callees are then covered too. Any use of a function reaches it, as a
// value too, and so does any use of a package-level variable whose
// initializer holds it; an interface method reaches the methods of its
// implements-set whose receiver types appear in reached code. A type
// appears where a reached expression has it (behind pointers, in
// slices, arrays, maps and channels), and with it the types of its
// fields: code that never holds a value of a type cannot call its
// methods. A field is reached only when reached code
// reads it: stores (x.f = v, x.f[i] = v), increments and literal keys do
// not read; comparing, converting or keying a map by a struct, and a
// JSON tag, read every field. Only a whole-module run reports.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "flag functions, methods and fields under internal/ that no main, init or root-package API reaches (whole-module runs only)",
	Run: func(p *Pass) {
		if p.Mod.whole {
			for _, d := range p.Mod.testonlyFindings()[p.ImportPath] {
				p.Reportf(d.pos, "%s", d.msg)
			}
		}
	},
}

type testonlyFinding struct {
	pos token.Pos
	msg string
}

// scanItem is code the walk reads: a function body or a package-level
// variable's initializer.
type scanItem struct {
	node ast.Node
	info *types.Info
}

// testonlyFindings walks the module once from its entry points and
// returns (memoized) the unreached declarations by import path.
func (m *Module) testonlyFindings() map[string][]testonlyFinding {
	if m.testonly != nil {
		return m.testonly
	}
	m.testonly = make(map[string][]testonlyFinding)
	g, root := m.Graph, m.Loader.Module
	internal := func(pkg *Package) bool { return strings.HasPrefix(pkg.ImportPath, root+"/internal/") }
	reached := make(map[types.Object]bool)
	read := make(map[*types.Var]bool)
	var work []scanItem
	visit := func(obj types.Object, it scanItem) {
		if !reached[obj] {
			reached[obj] = true
			work = append(work, it)
		}
	}
	reach := func(fn *types.Func) { visit(fn, scanItem{g.DeclOf[fn].Body, g.PkgOf[fn].Info}) }
	appeared := make(map[*types.TypeName]bool)
	pending := make(map[*types.TypeName][]*types.Func) // methods waiting for their receiver type
	byRecv := func(fn *types.Func) {                   // reach fn once its receiver type has appeared
		tn := namedType(derefType(fn.Type().(*types.Signature).Recv().Type())).Origin().Obj()
		if appeared[tn] {
			reach(fn)
		} else {
			pending[tn] = append(pending[tn], fn)
		}
	}
	var appear func(t types.Type)
	appear = func(t types.Type) {
		switch u := types.Unalias(t).(type) {
		case *types.Map:
			appear(u.Key())
			appear(u.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, channel
			appear(u.Elem())
		case *types.Struct:
			for i := range u.NumFields() {
				appear(u.Field(i).Type())
			}
		case *types.Named:
			if tn := u.Origin().Obj(); !appeared[tn] {
				appeared[tn] = true
				for _, fn := range pending[tn] {
					reach(fn)
				}
				delete(pending, tn)
				appear(u.Underlying())
			}
		}
	}
	enter := func(fn *types.Func) {
		for _, e := range g.resolve(canonFunc(fn)) {
			if e.Dynamic {
				byRecv(e.Callee)
			} else {
				reach(e.Callee)
			}
		}
	}

	// The signatures, by name, of the methods of every interface the
	// module imports from outside itself, error's included.
	ext := map[string][]types.Type{"Error": {types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0).Type()}}
	seen := make(map[*types.Package]bool)
	var imports func(p *types.Package)
	imports = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				imports(imp)
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) && !strings.HasPrefix(imp.Path()+"/", root+"/") {
						iface := tn.Type().Underlying().(*types.Interface)
						for i := range iface.NumMethods() {
							ext[iface.Method(i).Name()] = append(ext[iface.Method(i).Name()], iface.Method(i).Type())
						}
					}
				}
			}
		}
	}
	inits := make(map[*types.Var]scanItem)
	for _, pkg := range m.Loader.Packages() {
		imports(pkg.Types)
		for _, gd := range genDecls(pkg, token.VAR) {
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok && len(vs.Values) > 0 {
						inits[v] = scanItem{vs.Values[min(i, len(vs.Values)-1)], pkg.Info}
						if v.Exported() && pkg.ImportPath == root {
							visit(v, inits[v])
						}
					}
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || pkg.ImportPath != root || namedType(tn.Type()) == nil {
				continue
			}
			// A root type, alias or not, is public API: its exported
			// methods are entry points, its exported fields read. (An
			// interface's methods are reached where they are called.)
			named := namedType(tn.Type()).Origin()
			appear(named)
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := range ms.Len() {
				if fn := ms.At(i).Obj().(*types.Func); fn.Exported() {
					enter(fn)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if st.Field(i).Exported() {
						read[st.Field(i).Origin()] = true
					}
				}
			}
		}
	}
	external := func(fn *types.Func) bool {
		for _, sig := range ext[fn.Name()] {
			if types.Identical(sig, fn.Type()) {
				return true
			}
		}
		return false
	}
	for fn, fd := range g.DeclOf {
		pkg := g.PkgOf[fn]
		switch {
		case fd.Recv == nil && (fn.Name() == "init" || fn.Name() == "main" && pkg.Types.Name() == "main"),
			fn.Exported() && pkg.ImportPath == root:
			enter(fn)
		case fd.Recv != nil && external(fn):
			byRecv(fn)
			fallthrough // until its type appears, an allow may still cover it
		case internal(pkg):
			// Scanned, not reached: the allow still has a finding to
			// suppress unless something else reaches the declaration.
			if idx, _ := m.allowsFor(pkg); idx.covers(m.Loader.Fset.Position(fd.Name.Pos()), "testonly") {
				work = append(work, scanItem{fd.Body, pkg.Info})
			}
		}
	}
	for len(work) > 0 {
		it, stores := work[len(work)-1], make(map[ast.Expr]bool)
		work = work[:len(work)-1]
		stored := func(lhs ast.Expr) { // x.f[i][j] = v stores into field f
			lhs = ast.Unparen(lhs)
			for ix, ok := lhs.(*ast.IndexExpr); ok; ix, ok = lhs.(*ast.IndexExpr) {
				lhs = ast.Unparen(ix.X)
			}
			stores[lhs] = true
		}
		ast.Inspect(it.node, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				appear(it.info.TypeOf(e))
			}
			switch n := n.(type) {
			case *ast.Ident:
				switch obj := it.info.Uses[n].(type) {
				case *types.Func:
					enter(obj)
				case *types.Var:
					if in, ok := inits[obj]; ok {
						visit(obj, in)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					stored(lhs)
				}
			case *ast.IncDecStmt:
				stored(n.X)
			case *ast.SelectorExpr:
				if sel := it.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !stores[n] {
					read[sel.Obj().(*types.Var).Origin()] = true
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					readAll(it.info.TypeOf(n.X), read)
				}
			case *ast.IndexExpr:
				if m, ok := types.Unalias(it.info.TypeOf(n.X)).Underlying().(*types.Map); ok {
					readAll(m.Key(), read)
				}
			case *ast.CallExpr:
				if it.info.Types[n.Fun].IsType() && len(n.Args) == 1 {
					readAll(it.info.TypeOf(n.Args[0]), read) // a conversion copies every field
				}
			}
			return true
		})
	}

	report := func(pkg *Package, pos token.Pos, msg string) {
		m.testonly[pkg.ImportPath] = append(m.testonly[pkg.ImportPath], testonlyFinding{pos, msg})
	}
	for fn, fd := range g.DeclOf {
		if pkg := g.PkgOf[fn]; internal(pkg) && !reached[fn] {
			report(pkg, fd.Name.Pos(), FuncDisplay(fn)+" is reached by no main, init or root-package API, only by tests: delete it, move it into a _test.go file, or declare it with //lint:allow testonly(reason)")
		}
	}
	for _, pkg := range m.Loader.Packages() {
		for _, gd := range genDecls(pkg, token.TYPE) {
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				ast.Inspect(ts.Type, func(n ast.Node) bool {
					if field, ok := n.(*ast.Field); ok && internal(pkg) && !jsonField(field) {
						for _, name := range field.Names {
							if v, ok := pkg.Info.Defs[name].(*types.Var); ok && v.IsField() && !read[v] && name.Name != "_" {
								report(pkg, name.Pos(), "field "+ts.Name.Name+"."+name.Name+" is never read outside tests (only stored, counted or set in literals): delete it, or declare it with //lint:allow testonly(reason)")
							}
						}
					}
					return true
				})
			}
		}
	}
	return m.testonly
}

// genDecls returns pkg's top-level declarations of kind tok.
func genDecls(pkg *Package, tok token.Token) []*ast.GenDecl {
	var out []*ast.GenDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == tok {
				out = append(out, gd)
			}
		}
	}
	return out
}

// jsonField reports whether encoding/json reads field by reflection.
func jsonField(field *ast.Field) bool {
	if field.Tag == nil {
		return false
	}
	tag, _ := strconv.Unquote(field.Tag.Value)
	name, ok := reflect.StructTag(tag).Lookup("json")
	return ok && name != "-"
}

// readAll marks every field of struct type t read, nested structs
// included.
func readAll(t types.Type, read map[*types.Var]bool) {
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := range st.NumFields() {
			read[st.Field(i).Origin()] = true
			readAll(st.Field(i).Type(), read)
		}
	}
}
