package predicate

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestCompileLinearizesInSourceOrder(t *testing.T) {
	cls := Compile(MustParse("3 - x@0 + sum(y) - (x@1 - 2) >= -y@2 && x@0 * x@1 > 1 && avg(x) > 0.5"))
	if len(cls) != 3 {
		t.Fatalf("clauses = %d, want 3", len(cls))
	}
	c := cls[0]
	if !c.Linear || c.Op != CmpGE || c.Untracked {
		t.Fatalf("first clause = %+v, want linear >=", c)
	}
	wantL := LinSide{Konst: 5, Mag: 5, Terms: []Term{
		{Key: Key{0, "x"}, Neg: true}, {Key: Key{-1, "y"}}, {Key: Key{1, "x"}, Neg: true},
	}}
	wantR := LinSide{Terms: []Term{{Key: Key{2, "y"}, Neg: true}}}
	if !reflect.DeepEqual(c.Sides[0], wantL) || !reflect.DeepEqual(c.Sides[1], wantR) {
		t.Errorf("sides = %+v, want %+v / %+v", c.Sides, wantL, wantR)
	}
	for _, c := range cls[1:] {
		if c.Linear || c.Untracked {
			t.Errorf("%s: want opaque and tracked, got %+v", c.Cond, c)
		}
	}
}

func TestCompileMagAndUntracked(t *testing.T) {
	for _, c := range []struct {
		src  string
		side int
		want float64
	}{
		{"x@0 + 2 - 3 > 1", 0, 5},
		{"x@0 + 0.5 > 1", 0, math.Inf(1)},
		{"x@0 - 4503599627370495 > 0", 0, 1<<52 - 1},
		{"x@0 > 4503599627370495", 1, 1<<52 - 1},
		{"x@0 > 4503599627370496", 1, math.Inf(1)}, // 2⁵² is past ExactInt
	} {
		cl := Compile(MustParse(c.src))[0]
		if got := cl.Sides[c.side].Mag; !cl.Linear || got != c.want {
			t.Errorf("%q: linear %v, side %d Mag %v, want %v", c.src, cl.Linear, c.side, got, c.want)
		}
	}
	fc := FuncCond{F: func(State) bool { return true }}
	cmp := MustParse("x@0 > 1")
	for _, c := range []Cond{fc, Or{L: cmp, R: Not{X: fc}}} {
		if cl := Compile(c)[0]; !cl.Untracked || cl.Linear {
			t.Errorf("%s: want untracked, got %+v", c, cl)
		}
	}
	if cl := Compile(Or{L: cmp, R: Not{X: cmp}})[0]; cl.Untracked {
		t.Errorf("FuncCond-free disjunction marked untracked")
	}
}

// TestCompileDeepChain: p@0 + … + p@(m-1) parses into an m-deep
// left-leaning Bin chain; linearize must walk it without a frame per term.
func TestCompileDeepChain(t *testing.T) {
	const m = 1 << 16
	terms := make([]string, m)
	for i := range terms {
		terms[i] = "p@" + strconv.Itoa(i)
	}
	cls := Compile(MustParse(strings.Join(terms, " + ") + " >= " + strconv.Itoa(m/2)))
	if len(cls) != 1 || !cls[0].Linear {
		t.Fatalf("want one linear clause")
	}
	got := cls[0].Sides[0].Terms
	if len(got) != m {
		t.Fatalf("terms = %d, want %d", len(got), m)
	}
	for i, tm := range got {
		if tm.Key != (Key{Proc: i, Name: "p"}) || tm.Neg {
			t.Fatalf("term %d = %+v, want +p@%d", i, tm, i)
		}
	}
	if k := cls[0].Sides[1].Konst; k != m/2 {
		t.Errorf("right Konst = %v, want %d", k, m/2)
	}
}
