package predicate

import "testing"

// home is the one process conjunct c reads, or -1.
func home(c Cond) int {
	if p, ok := homeProc(c); ok {
		return p
	}
	return -1
}

func TestAsConjunctiveSimple(t *testing.T) {
	// ψ = (x_i = 5) ∧ (y_j > 7) from §3.1.2.a.
	c := MustParse("x@1 == 5 && y@2 > 7")
	cjs, ok := AsConjunctive(c)
	if !ok {
		t.Fatal("ψ should be conjunctive")
	}
	if len(cjs) != 2 || home(cjs[0]) != 1 || home(cjs[1]) != 2 {
		t.Fatalf("conjuncts %+v", cjs)
	}
}

func TestAsConjunctiveMergesSameProcess(t *testing.T) {
	// χ = temp_i = 20 ∧ person_in_room_i: two conjuncts at one process.
	c := MustParse("temp@0 == 20 && person@0 == 1")
	cjs, ok := AsConjunctive(c)
	if !ok || len(cjs) != 1 || home(cjs[0]) != 0 {
		t.Fatalf("conjuncts %+v ok=%v", cjs, ok)
	}
	s := st(1, map[Key]float64{{0, "temp"}: 20, {0, "person"}: 1})
	if !cjs[0].Holds(s) {
		t.Fatal("merged conjunct should hold")
	}
}

func TestRelationalNotConjunctive(t *testing.T) {
	// φ = x_i + y_j > 7 is relational (§3.1.2.b).
	if _, ok := AsConjunctive(MustParse("x@0 + y@1 > 7")); ok {
		t.Fatal("cross-process comparison misclassified as conjunctive")
	}
	if _, ok := AsConjunctive(MustParse("sum(x) - sum(y) > 200")); ok {
		t.Fatal("aggregate predicate misclassified")
	}
	if _, ok := AsConjunctive(MustParse("x@1 == 5 && y@2 > 7")); !ok {
		t.Fatal("conjunctive predicate misclassified as relational")
	}
}

func TestDisjunctionBlocksDecomposition(t *testing.T) {
	// A disjunction across processes is not conjunctive.
	if _, ok := AsConjunctive(MustParse("x@0 > 1 || x@1 > 1")); ok {
		t.Fatal("cross-process disjunction misclassified")
	}
	// But a disjunction local to one process is a fine conjunct.
	cjs, ok := AsConjunctive(MustParse("(x@0 > 1 || y@0 > 1) && z@1 == 0"))
	if !ok || len(cjs) != 2 {
		t.Fatalf("local disjunction should decompose: %+v ok=%v", cjs, ok)
	}
}

func TestConstantOnlyPredicateNotConjunctive(t *testing.T) {
	if _, ok := AsConjunctive(MustParse("1 > 0")); ok {
		t.Fatal("variable-free predicate has no home process")
	}
}

func TestSplitAnd(t *testing.T) {
	c := MustParse("x@0 > 1 && y@1 > 2 && z@2 > 3")
	parts := SplitAnd(c)
	if len(parts) != 3 {
		t.Fatalf("split %d parts", len(parts))
	}
}

func TestSpecString(t *testing.T) {
	if Instantaneously.String() != "Instantaneously" || Possibly.String() != "Possibly" || Definitely.String() != "Definitely" {
		t.Fatal("modality names")
	}
}
