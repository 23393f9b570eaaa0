package checker

import (
	"testing"

	"pervasive/internal/predicate"
)

func regOf4(n, r int) func(int) int { return func(p int) int { return p * r / n } }

func TestPlanLinearizesSumsAndAggregates(t *testing.T) {
	pred := predicate.MustParse("p@0 + p@1 - p@2 >= 2")
	p := NewPlan(pred, 8, regOf4(8, 4))
	if len(p.clauses) != 1 || !p.clauses[0].Linear {
		t.Fatalf("expected one linear clause, got %+v", p.clauses)
	}
	if got := len(p.byKey[predicate.Key{Proc: 0, Name: "p"}]); got != 1 {
		t.Errorf("p@0 hooks = %d, want 1", got)
	}
	c := p.byKey[predicate.Key{Proc: 2, Name: "p"}][0]
	if c.c != -1 || c.side != 0 {
		t.Errorf("p@2 coefficient = %+v, want -1 on side 0", c)
	}
	if p.clauses[0].Sides[1].Konst != 2 {
		t.Errorf("right konst = %v, want 2", p.clauses[0].Sides[1].Konst)
	}

	agg := predicate.MustParse("sum(x) - sum(y) > 200")
	pa := NewPlan(agg, 8, regOf4(8, 4))
	if !pa.clauses[0].Linear {
		t.Fatalf("aggregate difference should linearize")
	}
	if got := len(pa.byKey[predicate.Key{Proc: -1, Name: "x"}]); got != 1 {
		t.Errorf("sum(x) hooks = %d, want 1", got)
	}
	if c := pa.byKey[predicate.Key{Proc: -1, Name: "y"}][0]; c.c != -1 {
		t.Errorf("sum(y) coefficient = %v, want -1", c.c)
	}
	if pa.clauses[0].home != -1 {
		t.Errorf("aggregate clause homed to region %d, want -1 (spans)", pa.clauses[0].home)
	}
}

func TestPlanFlattensConjunctionAndHomesLocalClauses(t *testing.T) {
	// p@0 >= 1 is fully inside region 0 of a 4-region/8-proc split;
	// p@6 + p@7 >= 1 inside region 3; the cross term spans.
	pred := predicate.MustParse("p@0 >= 1 && p@6 + p@7 >= 1 && p@0 + p@7 >= 1")
	p := NewPlan(pred, 8, regOf4(8, 4))
	if len(p.clauses) != 3 {
		t.Fatalf("clauses = %d, want 3", len(p.clauses))
	}
	homes := []int{p.clauses[0].home, p.clauses[1].home, p.clauses[2].home}
	if homes[0] != 0 || homes[1] != 3 || homes[2] != -1 {
		t.Errorf("homes = %v, want [0 3 -1]", homes)
	}
	if !p.boundaryKey(0, "p", 0) {
		t.Errorf("p@0 feeds the spanning clause; must be boundary-relevant")
	}
	if p.boundaryKey(6, "p", 3) {
		t.Errorf("p@6 is read only by the region-3 clause; must be local from region 3")
	}
}

func TestPlanOpaqueFallback(t *testing.T) {
	cases := []string{
		"p@0 * p@1 > 1",      // product
		"avg(x) > 0.5",       // non-sum aggregate
		"p@0 > 1 || x@1 > 1", // disjunction
	}
	for _, src := range cases {
		p := NewPlan(predicate.MustParse(src), 8, regOf4(8, 4))
		if len(p.clauses) != 1 || p.clauses[0].Linear {
			t.Errorf("%q: expected one opaque clause", src)
		}
	}
	// Opaque clauses still register affected-keys for refresh.
	p := NewPlan(predicate.MustParse("p@0 * p@1 > 1"), 8, regOf4(8, 4))
	if got := len(p.opaqueByKey[predicate.Key{Proc: 1, Name: "p"}]); got != 1 {
		t.Errorf("opaque key hooks = %d, want 1", got)
	}
}

// TestPlanOpaqueMatchesDirectEval drives a tree holding an opaque
// predicate and checks its settled verdicts equal direct evaluation.
func TestPlanOpaqueMatchesDirectEval(t *testing.T) {
	pred := predicate.MustParse("p@0 * p@1 >= 1 || p@2 >= 3")
	tr := New(Config{N: 4, Pred: pred, Fanout: 2})
	seq := make([]int, 4)
	set := func(proc int, v float64) {
		seq[proc]++
		tr.OnReport(Report{Proc: proc, Seq: seq[proc], Var: "p", Value: v}, 1)
	}
	check := func(want bool) {
		t.Helper()
		if got := tr.numFalse == 0; got != want {
			t.Fatalf("settled = %v, want %v", got, want)
		}
	}
	check(false)
	set(0, 1)
	check(false)
	set(1, 1)
	check(true) // product path
	set(1, 0)
	check(false)
	set(2, 3)
	check(true) // disjunct path
}
