package predicate

import (
	"math"
	"testing"
)

// TestIncrementalRestoresExactly: setting keys and setting them back
// returns every running sum to its old bits, with no demotion.
func TestIncrementalRestoresExactly(t *testing.T) {
	var e Incremental
	e.Init(MustParse("sum(x) - x@1 + 3 >= y@0 && x@0 * y@1 < 4"), 4)
	e.Set(Key{0, "x"}, 5)
	e.Set(Key{1, "x"}, -2)
	e.Holds()
	before := e.cls[0].sum
	e.Set(Key{1, "x"}, 1<<40)
	e.Set(Key{0, "y"}, -7)
	e.Holds()
	e.Set(Key{0, "y"}, 0)
	e.Set(Key{1, "x"}, -2)
	e.Holds()
	if after := e.cls[0].sum; math.Float64bits(after[0]) != math.Float64bits(before[0]) ||
		math.Float64bits(after[1]) != math.Float64bits(before[1]) || e.Demoted != 0 {
		t.Errorf("sums %v after the round trip, %v before, %d demoted", after, before, e.Demoted)
	}
}

// TestIncrementalSetAllocations backs the hotpath proof rooted at Set: an
// update of a key a clause reads allocates nothing.
func TestIncrementalSetAllocations(t *testing.T) {
	var e Incremental
	e.Init(MustParse("sum(p) >= 3 && p@0 * p@1 < 2"), 64)
	v := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		v = 1 - v
		e.Set(Key{7, "p"}, v)
		e.Set(Key{1, "p"}, v)
		e.Holds()
	}); n != 0 {
		t.Errorf("Set and Holds allocate %v objects per run, want 0", n)
	}
}
