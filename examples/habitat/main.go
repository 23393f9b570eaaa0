// Habitat monitoring: the paper's motivating regime for strobe clocks —
// remote terrain where physically synchronized clocks are unavailable or
// unaffordable, lifeform movement is slow, and events are rare relative to
// Δ (§3.3, §6). Waterhole sensors detect animal presence; the predicate is
// a herd congregation: at least 2 of 5 waterholes occupied at the same
// instant. Despite Δ of seconds, accuracy stays near perfect because the
// event rate is low relative to Δ.
package main

import (
	"fmt"

	pervasive "pervasive"
)

func main() {
	fmt.Println("habitat monitor: 5 waterholes, congregation = ≥2 occupied, Δ = 2s")
	fmt.Println("delay regime      recall  precision  unflagged-FP")
	for _, delta := range []pervasive.Duration{
		500 * pervasive.Millisecond,
		2 * pervasive.Second,
		10 * pervasive.Second,
	} {
		hb := pervasive.NewHabitat(pervasive.HabitatConfig{
			Run: pervasive.ScenarioRun{Seed: 3, Delay: pervasive.DeltaBounded(delta), Horizon: 2 * pervasive.Hour},
		})
		res := hb.Run()
		fmt.Printf("Δ = %-12v  %.3f   %.3f      %d\n",
			delta, res.Confusion.Recall(), res.Confusion.Precision(),
			res.Confusion.FP-res.Confusion.BorderlineFP)
	}
	fmt.Println()
	fmt.Println("animal dwell times (minutes) dwarf Δ, so the strobe vector clock")
	fmt.Println("recreates the single time axis with no clock-sync service at all —")
	fmt.Println("the condition under which the paper advocates strobe clocks.")
}
