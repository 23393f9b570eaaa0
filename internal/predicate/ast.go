// Package predicate implements the paper's predicate design space
// (Section 3.1.2): conjunctive predicates whose conjuncts are locally
// evaluable at single processes [14], and relational predicates — arbitrary
// expressions over system-wide sensed variables [10], such as the
// exhibition-hall occupancy predicate  sum(x) - sum(y) > 200.
//
// Predicates are ASTs over per-process named variables, evaluated against
// a State. A small expression language (see Parse) builds them from text.
// The package also defines the time modalities under which a predicate can
// be specified (Instantaneously, Possibly, Definitely; Section 3.1.1).
package predicate

import (
	"fmt"
	"math"
	"strings"
)

// Key identifies a variable: the process where it is sensed and its name.
// The subscript convention of the paper — x_i is "x sensed at process i" —
// maps to Key{Proc: i, Name: "x"}.
type Key struct {
	Proc int
	Name string
}

// String renders the variable in the expression language's syntax.
func (k Key) String() string { return fmt.Sprintf("%s@%d", k.Name, k.Proc) }

// State supplies variable values during evaluation.
type State interface {
	// Get returns the value of variable name at process proc (0 if unset).
	Get(proc int, name string) float64
	// NumProcs returns the number of processes, needed by aggregates.
	NumProcs() int
}

// Columnar is the optional fast path of a State that keeps each variable
// as one column over the processes: aggregates read the column directly
// instead of calling Get once per process.
type Columnar interface {
	// Column returns the values of name at processes 0 … NumProcs()-1, or
	// nil when name is zero everywhere. The caller must not write to it.
	Column(name string) []float64
}

// Expr is a numeric expression.
type Expr interface {
	// Eval computes the expression's value in state s.
	Eval(s State) float64
	// CollectVars reports every variable the expression reads. Aggregates
	// report Key{Proc: -1}, meaning "this name at every process".
	CollectVars(add func(Key))
	fmt.Stringer
}

// Cond is a boolean predicate.
type Cond interface {
	// Holds evaluates the predicate in state s.
	Holds(s State) bool
	// CollectVars reports every variable the predicate reads.
	CollectVars(add func(Key))
	fmt.Stringer
}

// ---------- numeric expressions ----------

// Const is a numeric literal.
type Const float64

// Eval implements Expr.
func (c Const) Eval(State) float64 { return float64(c) }

// CollectVars implements Expr.
func (c Const) CollectVars(func(Key)) {}

func (c Const) String() string {
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.6f", float64(c)), "0"), ".")
}

// Var reads one variable at one process.
type Var Key

// Eval implements Expr.
func (v Var) Eval(s State) float64 { return s.Get(v.Proc, v.Name) }

// CollectVars implements Expr.
func (v Var) CollectVars(add func(Key)) { add(Key(v)) }

func (v Var) String() string { return Key(v).String() }

// AggOp selects the aggregate computed by Agg.
type AggOp int

// Aggregate operators over all processes.
const (
	AggSum AggOp = iota
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{"sum", "avg", "min", "max"}

// Agg aggregates variable Name across every process: e.g. sum(x) is
// Σ_i x_i — the system-wide totals used by relational predicates.
type Agg struct {
	Op   AggOp
	Name string
}

// Eval implements Expr. A Columnar state is folded over its column, any
// other through Get: the same values in the same left-to-right order from
// process 0, so both give the same bits.
func (a Agg) Eval(s State) float64 {
	n := s.NumProcs()
	if n == 0 {
		return 0
	}
	var acc float64
	if c, ok := s.(Columnar); ok {
		col := c.Column(a.Name)
		if col == nil {
			return 0 // every aggregate of n zeros
		}
		acc = a.Op.foldColumn(col[:n])
	} else {
		acc = s.Get(0, a.Name)
		for i := 1; i < n; i++ {
			v := s.Get(i, a.Name)
			switch a.Op {
			case AggSum, AggAvg:
				acc += v
			case AggMin:
				acc = math.Min(acc, v)
			case AggMax:
				acc = math.Max(acc, v)
			}
		}
	}
	if a.Op == AggAvg {
		acc /= float64(n)
	}
	return acc
}

// foldColumn is Eval's loop over a non-empty column, with the operator
// chosen once outside it.
func (op AggOp) foldColumn(col []float64) float64 {
	acc := col[0]
	switch op {
	case AggSum, AggAvg:
		for _, v := range col[1:] {
			acc += v
		}
	case AggMin:
		for _, v := range col[1:] {
			acc = math.Min(acc, v)
		}
	case AggMax:
		for _, v := range col[1:] {
			acc = math.Max(acc, v)
		}
	}
	return acc
}

// CollectVars implements Expr.
func (a Agg) CollectVars(add func(Key)) { add(Key{Proc: -1, Name: a.Name}) }

func (a Agg) String() string { return fmt.Sprintf("%s(%s)", aggNames[a.Op], a.Name) }

// BinOp selects the operator of a Bin expression.
type BinOp int

// Arithmetic operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
)

var binNames = [...]string{"+", "-", "*", "/"}

// Bin is a binary arithmetic expression.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Eval implements Expr. Division by zero yields 0 rather than ±Inf: sensor
// predicates must stay total.
func (b Bin) Eval(s State) float64 {
	l, r := b.L.Eval(s), b.R.Eval(s)
	switch b.Op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	default:
		if r == 0 {
			return 0
		}
		return l / r
	}
}

// CollectVars implements Expr.
func (b Bin) CollectVars(add func(Key)) {
	b.L.CollectVars(add)
	b.R.CollectVars(add)
}

func (b Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, binNames[b.Op], b.R)
}

// Neg is unary minus.
type Neg struct{ X Expr }

// Eval implements Expr.
func (n Neg) Eval(s State) float64 { return -n.X.Eval(s) }

// CollectVars implements Expr.
func (n Neg) CollectVars(add func(Key)) { n.X.CollectVars(add) }

func (n Neg) String() string { return fmt.Sprintf("(-%s)", n.X) }

// ---------- boolean predicates ----------

// CmpOp selects the comparison of a Cmp predicate.
type CmpOp int

// Comparison operators.
const (
	CmpGT CmpOp = iota
	CmpGE
	CmpLT
	CmpLE
	CmpEQ
	CmpNE
)

var cmpNames = [...]string{">", ">=", "<", "<=", "==", "!="}

// Cmp compares two numeric expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Holds implements Cond.
func (c Cmp) Holds(s State) bool { return CmpEval(c.Op, c.L.Eval(s), c.R.Eval(s)) }

// CollectVars implements Cond.
func (c Cmp) CollectVars(add func(Key)) {
	c.L.CollectVars(add)
	c.R.CollectVars(add)
}

func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, cmpNames[c.Op], c.R)
}

// And is conjunction.
type And struct{ L, R Cond }

// Holds implements Cond.
func (a And) Holds(s State) bool { return a.L.Holds(s) && a.R.Holds(s) }

// CollectVars implements Cond.
func (a And) CollectVars(add func(Key)) {
	a.L.CollectVars(add)
	a.R.CollectVars(add)
}

func (a And) String() string { return fmt.Sprintf("(%s && %s)", a.L, a.R) }

// Or is disjunction.
type Or struct{ L, R Cond }

// Holds implements Cond.
func (o Or) Holds(s State) bool { return o.L.Holds(s) || o.R.Holds(s) }

// CollectVars implements Cond.
func (o Or) CollectVars(add func(Key)) {
	o.L.CollectVars(add)
	o.R.CollectVars(add)
}

func (o Or) String() string { return fmt.Sprintf("(%s || %s)", o.L, o.R) }

// Not is negation.
type Not struct{ X Cond }

// Holds implements Cond.
func (n Not) Holds(s State) bool { return !n.X.Holds(s) }

// CollectVars implements Cond.
func (n Not) CollectVars(add func(Key)) { n.X.CollectVars(add) }

func (n Not) String() string { return fmt.Sprintf("!(%s)", n.X) }

// FuncCond wraps an arbitrary Go function as a predicate. Vars are
// whatever the constructor declares; used for predicates that are easier
// to write in Go than in the expression language.
type FuncCond struct {
	F    func(s State) bool
	Keys []Key
	Desc string
}

// Holds implements Cond.
func (f FuncCond) Holds(s State) bool { return f.F(s) }

// CollectVars implements Cond.
func (f FuncCond) CollectVars(add func(Key)) {
	for _, k := range f.Keys {
		add(k)
	}
}

func (f FuncCond) String() string {
	if f.Desc != "" {
		return f.Desc
	}
	return "<func>"
}

// VarsOf returns the distinct variables read by c, in first-seen order.
func VarsOf(c Cond) []Key {
	var out []Key
	seen := make(map[Key]bool)
	c.CollectVars(func(k Key) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	})
	return out
}
