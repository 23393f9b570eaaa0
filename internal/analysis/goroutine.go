package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Goroutine catches the exact shape of PR 4's live-engine pileup: a
// bare channel send inside a `time.AfterFunc` callback or a `go`
// closure. When the receiver stalls (a saturated mailbox, a finished
// run), every such send parks its goroutine forever — under load the
// old live engine accumulated one leaked goroutine per overflowing
// delivery. Asynchronous closures must make every send non-blocking:
// a select with a default case (counted drop) or a done-channel case
// (shutdown). A select whose only case is the send is still a blocking
// send and is flagged too.
//
// Named callees are chased through the module call graph: `go s.loop()`
// and `time.AfterFunc(d, s.fire)` run loop/fire on the new goroutine's
// terms just as a literal would, so their bodies (wherever declared)
// are held to the same rule, reported at the spawn site. Calls made
// inside a literal are not chased: the live engine's delivery path (a
// literal calling Network.arrive) is held by TestLiveOverloadStaysBounded.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "channel sends in time.AfterFunc/go closures must be select-guarded (default or done case)",
	Run:  runGoroutine,
}

func runGoroutine(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isPkgFunc(calleeFunc(p.Info, n), "time", "AfterFunc") && len(n.Args) == 2 {
					if lit, ok := ast.Unparen(n.Args[1]).(*ast.FuncLit); ok {
						checkAsyncBody(p, lit, "time.AfterFunc callback")
					} else if fn := funcValue(p, n.Args[1]); fn != nil {
						checkAsyncCallee(p, n.Args[1].Pos(), fn, "time.AfterFunc callback")
					}
				}
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					checkAsyncBody(p, lit, "go closure")
				} else if fn := calleeFunc(p.Info, n.Call); fn != nil {
					checkAsyncCallee(p, n.Call.Pos(), fn, "go statement")
				}
			}
			return true
		})
	}
}

// checkAsyncBody flags unguarded sends lexically inside lit. Nested
// function literals are skipped: if they are themselves async they are
// found by the top-level walk, and otherwise they run on some other
// goroutine's terms.
func checkAsyncBody(p *Pass, lit *ast.FuncLit, where string) {
	inspectStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		if sendIsSelectGuarded(send, stack) {
			return true
		}
		p.Reportf(send.Pos(), "blocking channel send in %s: a stalled receiver parks this goroutine forever (one leak per message); guard with a select carrying a default or done case", where)
		return true
	})
}

// funcValue resolves an expression used as a function value (s.fire,
// pkg.Handler) to its *types.Func, or nil.
func funcValue(p *Pass, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// checkAsyncCallee looks up a named callee's declaration in the module
// call graph and flags the spawn site if the body contains an unguarded
// send — the interprocedural twin of checkAsyncBody, reported where the
// goroutine is created (that is where the allow belongs, and the callee
// may be a shared helper that is fine on other goroutines' terms).
func checkAsyncCallee(p *Pass, at token.Pos, fn *types.Func, where string) {
	fn = canonFunc(fn)
	fd := p.Mod.Graph.DeclOf[fn]
	if fd == nil || fd.Body == nil {
		return
	}
	var bad token.Pos
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		if bad.IsValid() {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		if !sendIsSelectGuarded(send, stack) {
			bad = send.Pos()
		}
		return true
	})
	if bad.IsValid() {
		p.Reportf(at, "%s runs %s, which has a blocking channel send at %s: a stalled receiver parks this goroutine forever; guard the send with a select carrying a default or done case", where, FuncDisplay(fn), shortPos(p.Fset.Position(bad)))
	}
}

// sendIsSelectGuarded reports whether send is the communication of a
// select clause that has an escape hatch (at least one other case,
// default included).
func sendIsSelectGuarded(send *ast.SendStmt, stack []ast.Node) bool {
	// The ancestor path of a guarded send ends SelectStmt → BlockStmt →
	// CommClause, with the send as the clause's communication.
	if len(stack) < 3 {
		return false
	}
	clause, ok := stack[len(stack)-1].(*ast.CommClause)
	if !ok || clause.Comm != ast.Stmt(send) {
		return false
	}
	sel, ok := stack[len(stack)-3].(*ast.SelectStmt)
	if !ok {
		return false
	}
	return len(sel.Body.List) >= 2
}
