// Quickstart: detect every occurrence of a relational predicate over two
// sensed variables using strobe vector clocks — no physical clock
// synchronization anywhere.
package main

import (
	"fmt"

	pervasive "pervasive"
)

func main() {
	// The predicate language references variables as name@process.
	pred := pervasive.MustParsePredicate("x@0 == 1 && x@1 == 1")

	// Two sensors, Δ-bounded asynchronous links, Instantaneously modality.
	h := pervasive.NewHarness(pervasive.HarnessConfig{
		Seed: 42, N: 2, Kind: pervasive.VectorStrobe,
		Delay:    pervasive.DeltaBounded(50 * pervasive.Millisecond),
		Pred:     pred,
		Modality: pervasive.Instantaneously,
		Horizon:  time60s(),
	})

	// World plane: two objects whose attribute "p" toggles; each sensor
	// observes one of them as variable "x". The togglers are workload
	// data, each seeded explicitly, pumped into the world by one call.
	a := h.World.AddObject("object-a", nil)
	b := h.World.AddObject("object-b", nil)
	h.Bind(0, a, "p", "x")
	h.Bind(1, b, "p", "x")
	h.Install(
		pervasive.Toggler{Seed: 1, Obj: a, Attr: "p", MeanHigh: 2 * pervasive.Second, MeanLow: pervasive.Second},
		pervasive.Toggler{Seed: 2, Obj: b, Attr: "p", MeanHigh: 2 * pervasive.Second, MeanLow: pervasive.Second},
	)

	res := h.Run()

	fmt.Printf("ground truth: the predicate held during %d intervals\n", len(res.Truth))
	fmt.Printf("detected:     %d occurrences\n", len(res.Occurrences))
	for i, o := range res.Occurrences {
		flag := ""
		if o.Borderline {
			flag = "  [borderline: race within Δ]"
		}
		fmt.Printf("  #%-2d [%v .. %v]%s\n", i+1, o.Start, o.End, flag)
	}
	fmt.Printf("score:        %v\n", res.Confusion)
	fmt.Printf("recall %.3f, precision %.3f — with Δ ≪ event dwell times, strobe\n",
		res.Confusion.Recall(), res.Confusion.Precision())
	fmt.Println("clocks recreate the single time axis without synchronized clocks.")
}

func time60s() pervasive.Time { return 60 * pervasive.Second }
