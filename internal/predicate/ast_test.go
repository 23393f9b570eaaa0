package predicate

import (
	"math"
	"testing"
)

// MapState is a State backed by a map, the model these tests evaluate
// predicates over; a missing key reads as zero.
type MapState struct {
	N    int
	Vals map[Key]float64
}

// Get implements State.
func (m MapState) Get(proc int, name string) float64 { return m.Vals[Key{proc, name}] }

// NumProcs implements State.
func (m MapState) NumProcs() int { return m.N }

func st(n int, kv map[Key]float64) MapState { return MapState{N: n, Vals: kv} }

func TestConstVarEval(t *testing.T) {
	s := st(2, map[Key]float64{{0, "x"}: 3, {1, "x"}: 4})
	if Const(5).Eval(s) != 5 {
		t.Fatal("const")
	}
	if (Var{Proc: 1, Name: "x"}).Eval(s) != 4 {
		t.Fatal("var")
	}
	if (Var{Proc: 0, Name: "missing"}).Eval(s) != 0 {
		t.Fatal("missing var should be 0")
	}
}

func TestAggregates(t *testing.T) {
	s := st(3, map[Key]float64{{0, "x"}: 1, {1, "x"}: 5, {2, "x"}: 3})
	cases := map[AggOp]float64{AggSum: 9, AggAvg: 3, AggMin: 1, AggMax: 5}
	for op, want := range cases {
		if got := (Agg{Op: op, Name: "x"}).Eval(s); got != want {
			t.Errorf("agg %v = %v want %v", op, got, want)
		}
	}
	empty := st(0, nil)
	if (Agg{Op: AggSum, Name: "x"}).Eval(empty) != 0 {
		t.Fatal("empty aggregate should be 0")
	}
}

func TestBinOps(t *testing.T) {
	s := st(1, nil)
	if (Bin{OpAdd, Const(2), Const(3)}).Eval(s) != 5 {
		t.Fatal("add")
	}
	if (Bin{OpSub, Const(2), Const(3)}).Eval(s) != -1 {
		t.Fatal("sub")
	}
	if (Bin{OpMul, Const(2), Const(3)}).Eval(s) != 6 {
		t.Fatal("mul")
	}
	if (Bin{OpDiv, Const(6), Const(3)}).Eval(s) != 2 {
		t.Fatal("div")
	}
	if (Bin{OpDiv, Const(6), Const(0)}).Eval(s) != 0 {
		t.Fatal("division by zero must be total (0)")
	}
	if (Neg{Const(4)}).Eval(s) != -4 {
		t.Fatal("neg")
	}
}

func TestCmpOps(t *testing.T) {
	s := st(1, nil)
	tests := []struct {
		op   CmpOp
		l, r float64
		want bool
	}{
		{CmpGT, 2, 1, true}, {CmpGT, 1, 1, false},
		{CmpGE, 1, 1, true}, {CmpGE, 0, 1, false},
		{CmpLT, 1, 2, true}, {CmpLT, 2, 2, false},
		{CmpLE, 2, 2, true}, {CmpLE, 3, 2, false},
		{CmpEQ, 2, 2, true}, {CmpEQ, 2, 3, false},
		{CmpNE, 2, 3, true}, {CmpNE, 2, 2, false},
	}
	for _, c := range tests {
		got := Cmp{Op: c.op, L: Const(c.l), R: Const(c.r)}.Holds(s)
		if got != c.want {
			t.Errorf("%v %v %v = %v", c.l, cmpNames[c.op], c.r, got)
		}
	}
}

func TestLogicalOps(t *testing.T) {
	s := st(1, nil)
	tr := FuncCond{F: func(State) bool { return true }}
	fa := FuncCond{F: func(State) bool { return false }}
	if !(And{tr, tr}).Holds(s) || (And{tr, fa}).Holds(s) {
		t.Fatal("and")
	}
	if !(Or{fa, tr}).Holds(s) || (Or{fa, fa}).Holds(s) {
		t.Fatal("or")
	}
	if (Not{tr}).Holds(s) || !(Not{fa}).Holds(s) {
		t.Fatal("not")
	}
}

func TestCollectVars(t *testing.T) {
	c := MustParse("x@0 + y@1 > 2 && sum(z) < 5 && x@0 == 1")
	keys := VarsOf(c)
	want := []Key{{0, "x"}, {1, "y"}, {-1, "z"}}
	if len(keys) != len(want) {
		t.Fatalf("vars %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("vars %v want %v", keys, want)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	// Parse(c.String()) must be semantically equal to c on sample states.
	exprs := []string{
		"x@0 > 5",
		"sum(x) - sum(y) > 200",
		"x@1 == 5 && y@2 > 7",
		"!(temp@0 > 30) || motion@1 != 0",
		"avg(v) >= 2 && min(v) < 1",
		"-x@0 + 3 * y@1 <= 10",
	}
	states := []MapState{
		st(3, map[Key]float64{{0, "x"}: 1, {1, "y"}: 8, {0, "temp"}: 31}),
		st(3, map[Key]float64{{0, "x"}: 300, {1, "x"}: 10, {2, "y"}: 50,
			{0, "v"}: 3, {1, "v"}: 0.5, {2, "v"}: 4, {1, "motion"}: 1}),
		st(3, map[Key]float64{{1, "x"}: 5, {2, "y"}: 9}),
	}
	for _, src := range exprs {
		orig := MustParse(src)
		re, err := Parse(orig.String())
		if err != nil {
			t.Fatalf("reparse of %q (%q): %v", src, orig.String(), err)
		}
		for i, s := range states {
			if orig.Holds(s) != re.Holds(s) {
				t.Fatalf("round-trip of %q differs on state %d", src, i)
			}
		}
	}
}

func TestConstString(t *testing.T) {
	if Const(200).String() != "200" {
		t.Fatalf("const string %q", Const(200).String())
	}
	if Const(2.5).String() != "2.5" {
		t.Fatalf("const string %q", Const(2.5).String())
	}
}

func TestNaNSafety(t *testing.T) {
	// Predicates over NaN values must not panic and comparisons are false.
	s := st(1, map[Key]float64{{0, "x"}: math.NaN()})
	if MustParse("x@0 > 0").Holds(s) || MustParse("x@0 <= 0").Holds(s) {
		t.Fatal("NaN comparisons should be false")
	}
}

func TestFuncCondVarsAndString(t *testing.T) {
	fc := FuncCond{
		F:    func(State) bool { return true },
		Keys: []Key{{0, "x"}},
	}
	vars := VarsOf(fc)
	if len(vars) != 1 || vars[0] != (Key{0, "x"}) {
		t.Fatalf("vars %v", vars)
	}
	if fc.String() != "<func>" {
		t.Fatalf("string %q", fc.String())
	}
	named := FuncCond{F: func(State) bool { return false }, Desc: "rule"}
	if named.String() != "rule" {
		t.Fatalf("string %q", named.String())
	}
}

func TestNotCollectVars(t *testing.T) {
	c := Not{X: MustParse("x@0 > 1")}
	if len(VarsOf(c)) != 1 {
		t.Fatal("Not did not delegate CollectVars")
	}
}
