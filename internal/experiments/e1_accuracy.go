package experiments

import (
	"pervasive/internal/core"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// E1StrobeAccuracy reproduces the accuracy analysis of Section 3.3: strobe
// clocks detect Instantaneously-modal predicates with false negatives
// (vector) and additionally unflagged false positives (scalar); accuracy
// is high when the sensed-event rate is low relative to Δ and degrades as
// races within Δ become common. The ε-synchronized physical-clock
// detector is the baseline.
func E1StrobeAccuracy(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E1",
		Title: "detection accuracy vs Δ (n=6, k-of-n predicate)",
		Claim: "\"the use of logical vectors may result in some false negatives, whereas " +
			"the use of logical scalars may also result in some false positives\" … " +
			"\"Δ may be adequate when the rate of occurrence of sensed events is " +
			"comparatively low\" (§3.3)",
		Header: []string{"Δ", "detector", "recall", "precision", "FN", "FP",
			"FP-unflagged", "border-cov"},
	}

	deltas := []sim.Duration{
		5 * sim.Millisecond, 50 * sim.Millisecond, 200 * sim.Millisecond,
		800 * sim.Millisecond,
	}
	if !cfg.Quick {
		deltas = []sim.Duration{
			sim.Millisecond, 5 * sim.Millisecond, 20 * sim.Millisecond,
			50 * sim.Millisecond, 100 * sim.Millisecond, 200 * sim.Millisecond,
			400 * sim.Millisecond, 800 * sim.Millisecond, 1600 * sim.Millisecond,
		}
	}
	seeds := cfg.pick(6, 2)
	horizon := sim.Time(cfg.pick(120, 30)) * sim.Second

	kinds := []struct {
		name string
		kind core.ClockKind
	}{
		{"strobe-vector", core.VectorStrobe},
		{"strobe-scalar", core.ScalarStrobe},
		{"physical(ε=1ms)", core.PhysicalReport},
	}

	type point struct {
		delta sim.Duration
		kind  int // index into kinds
	}
	var points []point
	for _, delta := range deltas {
		for k := range kinds {
			points = append(points, point{delta, k})
		}
	}
	results := sweep(cfg, points, seeds, func(pt point, s uint64) stats.Confusion {
		kind := kinds[pt.kind].kind
		pw := pulseWorkload{
			N: 6, K: 4,
			MeanHigh: 300 * sim.Millisecond, MeanLow: 500 * sim.Millisecond,
			Kind:    kind,
			Delay:   sim.NewDeltaBounded(pt.delta),
			Horizon: horizon,
			Faults:  cfg.Faults,
		}
		if kind == core.PhysicalReport {
			pw.Epsilon = sim.Millisecond
		}
		return pw.run(cfg.Seed + s).Confusion
	})
	for i, pt := range points {
		var agg stats.Confusion
		for _, c := range results[i] {
			agg.Add(c)
		}
		t.AddRow(pt.delta, kinds[pt.kind].name,
			agg.Recall(), agg.Precision(), agg.FN, agg.FP,
			agg.FP-agg.BorderlineFP, agg.BorderlineCoverage())
	}
	t.Notes = append(t.Notes,
		"workload: 6 togglers, mean high 300ms / low 500ms; predicate sum(p) >= 4",
		"expected shape: recall falls as Δ grows; vector FP-unflagged ≈ 0; scalar FP-unflagged > 0 at large Δ")
	return t
}
