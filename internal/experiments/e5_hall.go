package experiments

import (
	"fmt"

	"pervasive/internal/scenario"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// E5ExhibitionHall reproduces the Section 5 application scenario: d-door
// exhibition hall, capacity predicate Σ(xᵢ−yᵢ) > 200, races through
// concurrent doors producing FNs above capacity and FPs below, with the
// vector-strobe consensus placing FPs and most FNs in the borderline bin.
func E5ExhibitionHall(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E5",
		Title: "exhibition hall occupancy monitor (capacity 200)",
		Claim: "\"a false negative may occur when the occupancy is above 200, and a false " +
			"positive may occur when the occupancy is below 201 … the consensus based " +
			"algorithm using vector strobes will be able to place false positives and most " +
			"false negatives in a 'borderline bin'\" (§5)",
		Header: []string{"doors", "Δ", "crossings", "recall", "precision",
			"FP", "FN", "border-cov"},
	}
	doorCounts := []int{2, 4, 8}
	if cfg.Quick {
		doorCounts = []int{2, 4}
	}
	seeds := cfg.pick(6, 2)

	deltas := []sim.Duration{50 * sim.Millisecond, 300 * sim.Millisecond}
	type point struct {
		doors int
		delta sim.Duration
	}
	var points []point
	for _, d := range doorCounts {
		for _, delta := range deltas {
			points = append(points, point{d, delta})
		}
	}
	type outcome struct {
		conf   stats.Confusion
		truths int
	}
	outcomes := sweep(cfg, points, seeds, func(j point, s uint64) outcome {
		hl := scenario.NewHall(scenario.HallConfig{
			Seed: cfg.Seed + s, Doors: j.doors,
			Capacity: 200, InitialOccupancy: 197,
			MeanArrival: 120 * sim.Millisecond,
			MeanStay:    20 * sim.Second,
			Delay:       sim.NewDeltaBounded(j.delta),
			Horizon:     sim.Time(cfg.pick(180, 45)) * sim.Second,
		})
		res := hl.Run()
		return outcome{conf: res.Confusion, truths: len(res.Truth)}
	})
	for i, pt := range points {
		var agg stats.Confusion
		truths := 0
		for _, o := range outcomes[i] {
			agg.Add(o.conf)
			truths += o.truths
		}
		t.AddRow(pt.doors, pt.delta, truths, agg.Recall(), agg.Precision(),
			agg.FP, agg.FN, agg.BorderlineCoverage())
	}
	t.Notes = append(t.Notes,
		"hall seeded near capacity (197 inside) so the predicate crosses its threshold repeatedly",
		fmt.Sprintf("expected shape: errors grow with doors and Δ; borderline coverage stays high (treating borderline as positive errs on the safe side per §5); seeds per row: %d", seeds))
	return t
}
