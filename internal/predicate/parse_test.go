package predicate

import (
	"strings"
	"testing"
)

func TestParseExhibitionHall(t *testing.T) {
	c := MustParse("sum(x) - sum(y) > 200")
	s := st(3, map[Key]float64{
		{0, "x"}: 100, {1, "x"}: 100, {2, "x"}: 50,
		{0, "y"}: 20, {1, "y"}: 10, {2, "y"}: 10,
	})
	if !c.Holds(s) { // 250 - 40 = 210 > 200
		t.Fatal("occupancy predicate should hold")
	}
	s.Vals[Key{0, "y"}] = 40 // 250 - 60 = 190
	if c.Holds(s) {
		t.Fatal("occupancy predicate should not hold")
	}
}

func TestParsePrecedence(t *testing.T) {
	c := MustParse("x@0 + 2 * y@0 == 7")
	s := st(1, map[Key]float64{{0, "x"}: 1, {0, "y"}: 3})
	if !c.Holds(s) {
		t.Fatal("precedence: 1 + 2*3 should be 7")
	}
	c2 := MustParse("(x@0 + 2) * y@0 == 9")
	if !c2.Holds(s) {
		t.Fatal("parens: (1+2)*3 should be 9")
	}
}

func TestParseLogicalPrecedence(t *testing.T) {
	// && binds tighter than ||.
	c := MustParse("x@0 > 0 || x@0 < -5 && x@0 > -10")
	s := st(1, map[Key]float64{{0, "x"}: 1})
	if !c.Holds(s) {
		t.Fatal("|| lhs should satisfy")
	}
	s.Vals[Key{0, "x"}] = -7
	if !c.Holds(s) {
		t.Fatal("&& group should satisfy")
	}
	s.Vals[Key{0, "x"}] = -20
	if c.Holds(s) {
		t.Fatal("neither branch should satisfy")
	}
}

func TestParseNotAndUnaryMinus(t *testing.T) {
	c := MustParse("!(x@0 > 5) && -x@0 < 0")
	s := st(1, map[Key]float64{{0, "x"}: 3})
	if !c.Holds(s) {
		t.Fatal("should hold for x=3")
	}
	s.Vals[Key{0, "x"}] = 7
	if c.Holds(s) {
		t.Fatal("should fail for x=7")
	}
}

func TestParseTrueFalse(t *testing.T) {
	s := st(1, nil)
	if !MustParse("true").Holds(s) || MustParse("false").Holds(s) {
		t.Fatal("boolean literals broken")
	}
	if !MustParse("true && x@0 == 0").Holds(s) {
		t.Fatal("literal conjunction broken")
	}
}

func TestParseFloats(t *testing.T) {
	c := MustParse("x@0 >= 2.5")
	s := st(1, map[Key]float64{{0, "x"}: 2.5})
	if !c.Holds(s) {
		t.Fatal("float literal comparison")
	}
}

func TestParseAggregateForms(t *testing.T) {
	s := st(2, map[Key]float64{{0, "v"}: 2, {1, "v"}: 4})
	for src, want := range map[string]bool{
		"sum(v) == 6": true,
		"avg(v) == 3": true,
		"min(v) == 2": true,
		"max(v) == 4": true,
	} {
		if MustParse(src).Holds(s) != want {
			t.Fatalf("%q evaluated wrong", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"":                  "unexpected",
		"x@0":               "numeric, not boolean",
		"5 > ":              "unexpected",
		"x > 5":             "needs a process",
		"x@ > 5":            "expected process index",
		"x@-1 > 5":          "expected process index",
		"x@1.5 > 5":         "non-negative integer",
		"sum( > 5":          "needs a variable name",
		"sum(x > 5":         "missing )",
		"(x@0 > 5 && ":      "unexpected",
		"x@0 > 5 && y@1":    "boolean",
		"x@0 + (y@1 > 2)":   "numeric expression",
		"x@0 > 5 extra":     "unexpected",
		"x@0 > 5 && && 1":   "unexpected",
		"$":                 "unexpected character",
		"(x@0 > 1) + 2 > 0": "numeric expression",
		"x@0 > 1 $ ignored": "unexpected character",
		"x@0 > 1 1.2.3":     "bad number",
	}
	for src, frag := range bad {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", src, frag)
			continue
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("Parse(%q) error %q does not contain %q", src, err, frag)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("((")
}

func TestParseDeepNesting(t *testing.T) {
	src := "((((x@0 > 1))))"
	c := MustParse(src)
	if !c.Holds(st(1, map[Key]float64{{0, "x"}: 2})) {
		t.Fatal("nested parens broken")
	}
	// A million levels once overflowed the goroutine stack: a fatal error,
	// not a panic.
	const deep = 1_000_000
	for _, src := range []string{
		strings.Repeat("(", deep) + "x@0 > 1" + strings.Repeat(")", deep),
		strings.Repeat("!", deep) + "x@0 > 1",
		"x@0 > " + strings.Repeat("-", deep) + "1",
		strings.Repeat("(", maxNesting+1) + "x@0 > 1" + strings.Repeat(")", maxNesting+1),
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "nested deeper than") {
			t.Errorf("Parse of %d bytes nested past the limit: %v", len(src), err)
		}
	}
	if _, err := Parse(strings.Repeat("(", maxNesting) + "x@0 > 1" + strings.Repeat(")", maxNesting)); err != nil {
		t.Errorf("nesting at the limit refused: %v", err)
	}
	// A flat chain is no nesting, but its String form nests one level per
	// operator.
	chain := MustParse(strings.Repeat("x@0 + ", maxNesting+1) + "x@0 > 1")
	if _, err := Parse(chain.String()); err == nil || !strings.Contains(err.Error(), "nested deeper than") {
		t.Errorf("String form of a chain of %d: %v", maxNesting+1, err)
	}
}

func TestParseWhitespaceRobust(t *testing.T) {
	c := MustParse("  sum( x )\t-\nsum( y )>200 ")
	s := st(1, map[Key]float64{{0, "x"}: 300})
	if !c.Holds(s) {
		t.Fatal("whitespace handling broken")
	}
}
