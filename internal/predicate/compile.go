package predicate

import "math"

// The compile step shared by the checker tree (internal/checker) and the
// ground-truth oracle (internal/world): the predicate split at its
// top-level conjunction into clauses, each comparison whose two sides are
// ±1-weighted sums of variables, sum() aggregates and constants marked
// Linear so a consumer can keep the sides as running sums instead of
// re-walking the AST.

// Term is one ±1-weighted read on a linear side: a variable, or — with
// Key.Proc == -1, the CollectVars convention — sum(Key.Name) over every
// process.
type Term struct {
	Key Key
	Neg bool
}

// LinSide is one linearized comparison side: Konst + Σ ±Terms.
type LinSide struct {
	Konst float64
	Terms []Term
	// Mag is Σ|c| over the constants folded into Konst when every one of
	// them is an ExactInt, +Inf otherwise. Added to Σ|value| over the
	// terms it bounds every partial sum any evaluation order can form; see
	// ExactInt.
	Mag float64
}

// Clause is one top-level conjunct.
type Clause struct {
	// Cond is the conjunct as written: what an opaque consumer evaluates.
	Cond Cond
	// Linear reports that Cond is a Cmp with both sides linearized into
	// Sides under Op.
	Linear bool
	Op     CmpOp
	Sides  [2]LinSide
	// Untracked reports a FuncCond (or a Cond type from outside this
	// package) somewhere inside Cond: CollectVars is then only what a
	// constructor declared, so the clause may read anything and must be
	// re-evaluated on every change.
	Untracked bool
}

// Compile splits c at its top-level conjunction and linearizes every
// comparison that admits it. Anything under an Or/Not stays inside its
// clause.
func Compile(c Cond) []Clause {
	conjuncts := SplitAnd(c)
	out := make([]Clause, len(conjuncts))
	for i, cj := range conjuncts {
		cl := &out[i]
		cl.Cond = cj
		cl.Untracked = !tracked(cj)
		if cmp, ok := cj.(Cmp); ok {
			var l, r LinSide
			if linearize(cmp.L, false, &l) && linearize(cmp.R, false, &r) {
				cl.Linear, cl.Op, cl.Sides = true, cmp.Op, [2]LinSide{l, r}
			}
		}
	}
	return out
}

// ExactInt reports whether v is an integer of magnitude below 2⁵². Sums
// and differences of such values are exact in float64 while the summed
// magnitudes stay below 2⁵³, so they come out bit-identical in any
// association order — the condition under which a running sum may stand
// in for the AST walk of Eval.
func ExactInt(v float64) bool {
	return math.Abs(v) < 1<<52 && v == math.Trunc(v)
}

// tracked reports whether CollectVars names everything c reads.
func tracked(c Cond) bool {
	switch x := c.(type) {
	case Cmp:
		return true
	case And:
		return tracked(x.L) && tracked(x.R)
	case Or:
		return tracked(x.L) && tracked(x.R)
	case Not:
		return tracked(x.X)
	}
	return false
}

// linearize folds e into s as a ±1-weighted sum, terms and constants in
// source order; it reports false (and may leave s partially written — the
// caller discards it) when e contains a non-linear construct. The left
// spine of +/- is walked with an explicit stack: the parser builds
// a + b + c + … left-leaning, one Bin deep per term.
func linearize(e Expr, neg bool, s *LinSide) bool {
	type pending struct {
		r   Expr
		neg bool
	}
	var spine []pending
	for {
		b, ok := e.(Bin)
		if !ok || (b.Op != OpAdd && b.Op != OpSub) {
			break
		}
		spine = append(spine, pending{r: b.R, neg: neg != (b.Op == OpSub)})
		e = b.L
	}
	switch x := e.(type) {
	case Const:
		c := float64(x)
		if neg {
			c = -c
		}
		s.Konst += c
		if ExactInt(c) {
			s.Mag += math.Abs(c)
		} else {
			s.Mag = math.Inf(1)
		}
	case Var:
		s.Terms = append(s.Terms, Term{Key: Key(x), Neg: neg})
	case Neg:
		if !linearize(x.X, !neg, s) {
			return false
		}
	case Agg:
		if x.Op != AggSum {
			return false
		}
		s.Terms = append(s.Terms, Term{Key: Key{Proc: -1, Name: x.Name}, Neg: neg})
	default:
		return false
	}
	for i := len(spine) - 1; i >= 0; i-- {
		if !linearize(spine[i].r, spine[i].neg, s) {
			return false
		}
	}
	return true
}

// CmpEval applies op to two already-computed side values.
func CmpEval(op CmpOp, l, r float64) bool {
	switch op {
	case CmpGT:
		return l > r
	case CmpGE:
		return l >= r
	case CmpLT:
		return l < r
	case CmpLE:
		return l <= r
	case CmpEQ:
		return l == r
	default:
		return l != r
	}
}
