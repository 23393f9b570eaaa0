package core

import (
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/predicate"
	simt "pervasive/internal/sim"
)

// handStrobe builds a StrobeMsg with a literal vector.
func handStrobe(proc, seq int, varName string, value float64, vec clock.Vector) StrobeMsg {
	return StrobeMsg{Proc: proc, Seq: seq, Var: varName, Value: value, Vec: vec}
}

func TestVectorCheckerDetectsFlips(t *testing.T) {
	pred := predicate.MustParse("x@0 == 1 && x@1 == 1")
	c := NewVectorChecker(2, pred)
	// Causally ordered events: p0 rises, p1 rises (having seen p0's strobe),
	// then p0 falls.
	c.OnStrobe(handStrobe(0, 1, "x", 1, clock.Vector{1, 0}), 10)
	c.OnStrobe(handStrobe(1, 1, "x", 1, clock.Vector{1, 1}), 20)
	c.OnStrobe(handStrobe(0, 2, "x", 0, clock.Vector{2, 1}), 30)
	c.Finish(100)

	occ := c.Occurrences()
	if len(occ) != 1 {
		t.Fatalf("occurrences %v", occ)
	}
	if occ[0].Start != 20 || occ[0].End != 30 {
		t.Fatalf("occurrence %+v", occ[0])
	}
	if occ[0].Borderline {
		t.Fatal("causally ordered flip must not be borderline")
	}
	if len(c.Markers()) != 0 {
		t.Fatalf("markers %v", c.Markers())
	}
}

// TestVectorCheckerCopiesStamps: the flat checker keeps a copy of each
// stamp it applies, not the delivered slice, which belongs to a body the
// transport reuses once the handler returns. p0's stamp is overwritten
// after delivery, as a recycled strobe would overwrite it, with one
// concurrent to p1's next strobe; p1's strobe follows p0's, so the flip
// it causes is no race.
func TestVectorCheckerCopiesStamps(t *testing.T) {
	c := NewVectorChecker(2, predicate.MustParse("x@0 > x@1"))
	vec := clock.Vector{1, 0}
	c.OnStrobe(handStrobe(0, 1, "x", 1, vec), 10)
	copy(vec, clock.Vector{0, 5})
	c.OnStrobe(handStrobe(1, 1, "x", 1, clock.Vector{1, 1}), 20)
	c.Finish(100)
	if m := c.Markers(); len(m) != 0 {
		t.Fatalf("race markers %v: the checker read a stamp overwritten after delivery", m)
	}
	if occ := c.Occurrences(); len(occ) != 1 || occ[0].Borderline {
		t.Fatalf("occurrences %+v, want one definite", occ)
	}
}

func TestVectorCheckerEveryOccurrence(t *testing.T) {
	pred := predicate.MustParse("x@0 == 1")
	c := NewVectorChecker(1, pred)
	for i := 0; i < 6; i++ {
		v := clock.Vector{uint64(i + 1)}
		c.OnStrobe(handStrobe(0, i+1, "x", float64((i+1)%2), v), simt.Time(i*10))
	}
	c.Finish(1000)
	// x = 1,0,1,0,1,0 → three occurrences; the paper's requirement that
	// detection not "hang" after the first.
	if len(c.Occurrences()) != 3 {
		t.Fatalf("occurrences %v", c.Occurrences())
	}
}

func TestVectorCheckerStaleDrop(t *testing.T) {
	pred := predicate.MustParse("x@0 > 0")
	c := NewVectorChecker(1, pred)
	c.OnStrobe(handStrobe(0, 2, "x", 5, clock.Vector{2}), 10)
	c.OnStrobe(handStrobe(0, 1, "x", 1, clock.Vector{1}), 20) // late, stale
	if c.Applied != 1 || c.Stale != 1 {
		t.Fatalf("applied=%d stale=%d", c.Applied, c.Stale)
	}
	if c.View(0, "x") != 5 {
		t.Fatal("stale strobe overwrote newer value")
	}
}

func TestVectorCheckerIgnoresBadProc(t *testing.T) {
	c := NewVectorChecker(1, predicate.MustParse("x@0 > 0"))
	c.OnStrobe(handStrobe(7, 1, "x", 1, clock.Vector{1}), 5)
	c.OnStrobe(handStrobe(-1, 1, "x", 1, clock.Vector{1}), 5)
	if c.Applied != 0 {
		t.Fatal("out-of-range strobes applied")
	}
}

func TestVectorCheckerRaceBorderline(t *testing.T) {
	// x@0 falls while x@1 rises, concurrently: whether the conjunction
	// was ever true depends on the unknowable order — a genuine race.
	pred := predicate.MustParse("x@0 == 1 && x@1 == 1")
	c := NewVectorChecker(2, pred)
	// p0 rises first (seen by all — causally ordered).
	c.OnStrobe(handStrobe(0, 1, "x", 1, clock.Vector{1, 0}), 10)
	// Now p1 rises and p0 falls concurrently; the rise arrives first, so
	// the view shows a brief conjunction that may never have existed.
	c.OnStrobe(handStrobe(1, 1, "x", 1, clock.Vector{1, 1}), 20)
	c.OnStrobe(handStrobe(0, 2, "x", 0, clock.Vector{2, 0}), 21)
	c.Finish(100)
	occ := c.Occurrences()
	if len(occ) != 1 {
		t.Fatalf("occurrences %v", occ)
	}
	if !occ[0].Borderline {
		t.Fatal("racing flip not classified borderline")
	}
	if len(c.Markers()) == 0 {
		t.Fatal("race left no marker")
	}
}

func TestVectorCheckerRobustConcurrentRisesNotBorderline(t *testing.T) {
	// Two concurrent rises that jointly push a sum over threshold: φ
	// becomes true at the later event under either order — robust, not a
	// race (the refined criterion of detectRace).
	pred := predicate.MustParse("sum(x) > 1")
	c := NewVectorChecker(2, pred)
	c.OnStrobe(handStrobe(0, 1, "x", 1, clock.Vector{1, 0}), 10)
	c.OnStrobe(handStrobe(1, 1, "x", 1, clock.Vector{0, 1}), 11)
	c.Finish(100)
	occ := c.Occurrences()
	if len(occ) != 1 {
		t.Fatalf("occurrences %v", occ)
	}
	if occ[0].Borderline {
		t.Fatal("robust concurrent rises misflagged as borderline")
	}
}

func TestVectorCheckerNoRaceWhenOrderIrrelevant(t *testing.T) {
	// Two concurrent events on *different* variables where only one
	// matters: flipping y does not affect x@0>0, so no borderline.
	pred := predicate.MustParse("x@0 > 0")
	c := NewVectorChecker(2, pred)
	c.OnStrobe(handStrobe(1, 1, "y", 7, clock.Vector{0, 1}), 5)
	c.OnStrobe(handStrobe(0, 1, "x", 1, clock.Vector{1, 0}), 10)
	c.Finish(100)
	occ := c.Occurrences()
	if len(occ) != 1 || occ[0].Borderline {
		t.Fatalf("irrelevant concurrency flagged: %v", occ)
	}
}

func TestScalarCheckerNeverBorderline(t *testing.T) {
	pred := predicate.MustParse("sum(x) > 1")
	c := NewScalarChecker(2, pred)
	c.OnStrobe(StrobeMsg{Proc: 0, Seq: 1, Var: "x", Value: 1, Scalar: 1}, 10)
	c.OnStrobe(StrobeMsg{Proc: 1, Seq: 1, Var: "x", Value: 1, Scalar: 1}, 11)
	c.Finish(100)
	occ := c.Occurrences()
	if len(occ) != 1 {
		t.Fatalf("occurrences %v", occ)
	}
	if occ[0].Borderline || len(c.Markers()) != 0 {
		t.Fatal("scalar checker cannot know about races yet flagged one")
	}
}

func TestCheckerFinishClosesOpen(t *testing.T) {
	c := NewVectorChecker(1, predicate.MustParse("x@0 > 0"))
	c.OnStrobe(handStrobe(0, 1, "x", 1, clock.Vector{1}), 42)
	c.Finish(500)
	occ := c.Occurrences()
	if len(occ) != 1 || occ[0].End != 500 {
		t.Fatalf("open occurrence not closed: %v", occ)
	}
	// Post-finish strobes are ignored.
	c.OnStrobe(handStrobe(0, 2, "x", 0, clock.Vector{2}), 600)
	if c.Applied != 1 {
		t.Fatal("strobe applied after Finish")
	}
}

// TestFlatViewKeepsUndeclaredKeys: a FuncCond's CollectVars is only what
// its constructor declared (here x@0), while its function reads y@3 and
// sums x over every process. The flat view keeps every name and process a
// strobe carries, so the verdict follows what the function reads.
func TestFlatViewKeepsUndeclaredKeys(t *testing.T) {
	sum := predicate.Agg{Op: predicate.AggSum, Name: "x"}
	pred := predicate.FuncCond{F: func(s predicate.State) bool {
		return s.Get(3, "y") == 1 && sum.Eval(s) == 2
	}, Keys: []predicate.Key{{Proc: 0, Name: "x"}}}
	c := NewScalarChecker(4, pred)
	c.OnStrobe(StrobeMsg{Proc: 3, Seq: 1, Var: "y", Value: 1}, 10)
	c.OnStrobe(StrobeMsg{Proc: 0, Seq: 1, Var: "x", Value: 1}, 20)
	c.OnStrobe(StrobeMsg{Proc: 2, Seq: 1, Var: "x", Value: 1}, 30)
	c.OnStrobe(StrobeMsg{Proc: 3, Seq: 2, Var: "y", Value: 0}, 40)
	c.Finish(100)
	if got := c.View(3, "y") + c.View(2, "x"); got != 1 {
		t.Fatalf("View(3, y) + View(2, x) = %v, want 1", got)
	}
	occ := c.Occurrences()
	if len(occ) != 1 || occ[0].Start != 30 || occ[0].End != 40 {
		t.Fatalf("occurrences %v, want one over [30, 40)", occ)
	}
}
