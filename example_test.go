package pervasive_test

import (
	"fmt"

	pervasive "pervasive"
)

// ExampleNewHarness shows the full quickstart: two sensors, strobe vector
// clocks, detection of a conjunction under Instantaneously, scored against
// ground truth.
func ExampleNewHarness() {
	h := pervasive.NewHarness(pervasive.HarnessConfig{
		Seed: 1, N: 2, Kind: pervasive.VectorStrobe,
		Delay:    pervasive.DeltaBounded(10 * pervasive.Millisecond),
		Pred:     pervasive.MustParsePredicate("x@0 == 1 && x@1 == 1"),
		Modality: pervasive.Instantaneously,
		Horizon:  10 * pervasive.Second,
	})
	a := h.World.AddObject("a", nil)
	b := h.World.AddObject("b", nil)
	h.Bind(0, a, "p", "x")
	h.Bind(1, b, "p", "x")
	// Scripted world: both up during [1s, 3s).
	h.Eng.At(1*pervasive.Second, func(pervasive.Time) {
		h.World.Set(a, "p", 1)
		h.World.Set(b, "p", 1)
	})
	h.Eng.At(3*pervasive.Second, func(pervasive.Time) {
		h.World.Set(a, "p", 0)
	})
	res := h.Run()
	fmt.Printf("truth=%d detected=%d TP=%d\n",
		len(res.Truth), len(res.Occurrences), res.Confusion.TP)
	// Output: truth=1 detected=1 TP=1
}

// ExampleConsensusMerge demonstrates §5's consensus over replicated
// checker views: the majority interval survives, minority noise is
// suppressed, and partial agreement is flagged borderline.
func ExampleConsensusMerge() {
	replicas := [][]pervasive.Occurrence{
		{{Start: 10, End: 20}},
		{{Start: 11, End: 21}},
		{{Start: 500, End: 510}}, // hallucination of one replica
	}
	merged := pervasive.ConsensusMerge(replicas, 1000)
	for _, o := range merged {
		fmt.Printf("[%d,%d) borderline=%v\n", o.Start, o.End, o.Borderline)
	}
	// Output: [11,20) borderline=true
}

// ExampleTimingSpec checks the secure-banking relation of §3.1.1.a.ii.
func ExampleTimingSpec() {
	spec := pervasive.TimingSpec{Rel: pervasive.XBeforeY, MaxGap: 30 * pervasive.Second}
	fmt.Println(spec)
	// Output: X before Y by (0µs, 30.000s]
}
