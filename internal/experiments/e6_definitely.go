package experiments

import (
	"fmt"

	"pervasive/internal/predicate"
	"pervasive/internal/scenario"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// E6DefinitelyUnderDelay reproduces the simulation result the paper cites
// from Huang et al. [17] (§3.3): detecting Definitely(φ) for a conjunctive
// φ in a realistic smart-office model, "despite increasing the average
// message delay over a wide range, the probability of correct detection is
// quite high".
func E6DefinitelyUnderDelay(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E6",
		Title: "Definitely(φ) detection probability vs mean message delay (smart office)",
		Claim: "\"despite increasing the average message delay over a wide range, the " +
			"probability of correct detection is quite high\" (§3.3, citing [17])",
		Header: []string{"mean delay", "×base", "true occurrences", "detected", "P(detect)"},
	}
	base := 25 * sim.Millisecond
	multipliers := []int{1, 4, 16, 64}
	if !cfg.Quick {
		multipliers = []int{1, 2, 4, 8, 16, 32, 64}
	}
	seeds := cfg.pick(6, 2)

	results := sweep(cfg, multipliers, seeds, func(m int, s uint64) stats.Confusion {
		of := scenario.NewOffice(scenario.OfficeConfig{
			Seed: cfg.Seed + s, Rooms: 1,
			Modality: predicate.Definitely,
			Delay:    sim.NewDeltaBounded(base * sim.Duration(m)),
			Horizon:  sim.Time(cfg.pick(300, 60)) * sim.Second,
			// Long dwell times: human-scale context changes.
			MeanOccupied: 10 * sim.Second, MeanEmpty: 5 * sim.Second,
			MeanTempStep: sim.Second,
		})
		return of.Run().Confusion
	})
	for mi, m := range multipliers {
		delta := base * sim.Duration(m)
		var agg stats.Confusion
		for _, c := range results[mi] {
			agg.Add(c)
		}
		t.AddRow(delta, fmt.Sprintf("×%d", m),
			agg.TP+agg.FN, agg.TP, agg.Recall())
	}
	t.Notes = append(t.Notes,
		"predicate: motion==1 ∧ temp>30 in one room (χ of §3.1.2.a); modality Definitely",
		"expected shape: P(detect) stays well above 0.5 across the whole sweep")
	return t
}
