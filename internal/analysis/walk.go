package analysis

import (
	"go/ast"
	"go/types"
)

// inspectStack walks root like ast.Inspect while maintaining the stack
// of ancestor nodes. fn receives each node with its ancestors
// (outermost first, not including the node itself); returning false
// skips the node's children.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		desc := fn(n, stack)
		if desc {
			stack = append(stack, n)
		}
		return desc
	})
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function or method, an explicitly instantiated generic
// one included), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) { // f[T](x), f[T, U](x): the call is to f
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// namedType unwraps aliases and reports the named type of t, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}
