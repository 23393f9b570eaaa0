package clock

import (
	"testing"
	"testing/quick"
)

func TestVectorCompareBasics(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{1, 2, 3}
	if a.Compare(b) != Same {
		t.Fatal("equal vectors not Same")
	}
	c := Vector{1, 2, 4}
	if a.Compare(c) != Before || c.Compare(a) != After {
		t.Fatal("dominance not detected")
	}
	d := Vector{2, 1, 3}
	if a.Compare(d) != Concurrent || d.Compare(a) != Concurrent {
		t.Fatal("concurrency not detected")
	}
}

func TestVectorCompareDifferentLengths(t *testing.T) {
	short := Vector{1, 1}
	long := Vector{1, 1, 0}
	if short.Compare(long) != Same {
		t.Fatal("trailing zeros should not change the relation")
	}
	long2 := Vector{1, 1, 5}
	if short.Compare(long2) != Before {
		t.Fatal("shorter vector should be Before when extension dominates")
	}
}

// TestVectorCompareCases runs Compare both ways over pairs where the
// early exit and the zero-padded tail decide: a relation settled only at
// the last component or in the longer vector's tail, one-sided
// differences that must not read as Concurrent, and both ends of the
// component range.
func TestVectorCompareCases(t *testing.T) {
	top := ^uint64(0)
	flip := map[Order]Order{Same: Same, Before: After, After: Before, Concurrent: Concurrent}
	for _, c := range []struct {
		v, w Vector
		want Order
	}{
		{Vector{0, 2, 1}, Vector{1, 1, 1}, Concurrent},
		{Vector{1, 1, 2}, Vector{1, 2, 1}, Concurrent},
		{Vector{1, 0, 0}, Vector{1, 1, 1}, Before},
		{Vector{top, 0}, Vector{0, 0}, After},
		{Vector{2, 1}, Vector{1, 1, 5}, Concurrent},
		{Vector{1, 1, 5}, Vector{1, 2}, Concurrent},
		{Vector{1, 2, 3}, Vector{1, 2}, After},
		{Vector{1, 2, 0, 0}, Vector{1, 2}, Same},
		{Vector{}, Vector{0, 0}, Same},
		{nil, Vector{0, top}, Before},
	} {
		if got := c.v.Compare(c.w); got != c.want {
			t.Errorf("%v.Compare(%v) = %v, want %v", c.v, c.w, got, c.want)
		}
		if got := c.w.Compare(c.v); got != flip[c.want] {
			t.Errorf("%v.Compare(%v) = %v, want %v", c.w, c.v, got, flip[c.want])
		}
		if got := c.v.ConcurrentWith(c.w); got != (c.want == Concurrent) {
			t.Errorf("%v.ConcurrentWith(%v) = %v", c.v, c.w, got)
		}
	}
}

func TestHappensBeforeAndConcurrent(t *testing.T) {
	a := Vector{0, 1}
	b := Vector{1, 1}
	if !a.HappensBefore(b) || b.HappensBefore(a) {
		t.Fatal("happens-before misreported")
	}
	c := Vector{1, 0}
	if !a.ConcurrentWith(c) || !c.ConcurrentWith(a) {
		t.Fatal("concurrent misreported")
	}
	if a.ConcurrentWith(a) {
		t.Fatal("vector concurrent with itself")
	}
}

func TestMergeFromIsLUB(t *testing.T) {
	v := Vector{1, 5, 2}
	w := Vector{3, 1, 2, 7}
	merged := v.MergeFrom(w)
	want := Vector{3, 5, 2, 7}
	if merged.Compare(want) != Same {
		t.Fatalf("merge = %v want %v", merged, want)
	}
}

// Property: merge is an upper bound of both operands and idempotent.
func TestMergeProperty(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a := make(Vector, len(av))
		for i, x := range av {
			a[i] = uint64(x)
		}
		b := make(Vector, len(bv))
		for i, x := range bv {
			b[i] = uint64(x)
		}
		m := a.Clone()
		m.MergeFrom(b)
		if r := a.Compare(m); r != Before && r != Same {
			return false
		}
		if r := b.Compare(m); r != Before && r != Same {
			return false
		}
		m2 := m.Clone()
		m2.MergeFrom(b)
		m2.MergeFrom(a)
		return m2.Compare(m) == Same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is antisymmetric — swapping arguments flips Before and
// After and preserves Same/Concurrent.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a := make(Vector, len(av))
		for i, x := range av {
			a[i] = uint64(x)
		}
		b := make(Vector, len(bv))
		for i, x := range bv {
			b[i] = uint64(x)
		}
		fwd, rev := a.Compare(b), b.Compare(a)
		switch fwd {
		case Same:
			return rev == Same
		case Before:
			return rev == After
		case After:
			return rev == Before
		default:
			return rev == Concurrent
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := Vector{1, 2}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestOrderString(t *testing.T) {
	for o, want := range map[Order]string{Same: "=", Before: "<", After: ">", Concurrent: "||"} {
		if o.String() != want {
			t.Fatalf("%d.String() = %q", o, o.String())
		}
	}
}
