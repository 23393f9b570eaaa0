package experiments

import (
	"fmt"

	"pervasive/internal/clock"
	"pervasive/internal/core"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// E2TwoEpsilon reproduces the Mayo–Kearns limit the paper cites in §3.3:
// "when the overlap period of the local intervals, during which the global
// predicate is true, is less than 2ε, false negatives occur" [28]. Two
// sensors pulse with a controlled true overlap; readings come from clocks
// whose error is within ±ε/2 of true time (pairwise skew ≤ ε, i.e. the
// paper's 2ε bound corresponds to overlap/skew-bound = 1 here). The
// detector sees timestamp order only.
func E2TwoEpsilon(cfg RunConfig) *Table {
	const eps = 10 * sim.Millisecond // pairwise skew bound
	t := &Table{
		ID:    "E2",
		Title: "false negatives vs overlap (pairwise skew bound ε' = 10ms)",
		Claim: "\"when the overlap period … is less than 2ε, false negatives occur\" " +
			"(§3.3 / Mayo–Kearns [28]; ε' here is the pairwise bound = 2ε of [28])",
		Header: []string{"overlap/ε'", "overlap", "trials", "FN-rate", "FP-rate"},
	}
	ratios := []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0}
	trials := cfg.pick(400, 60)

	pred := predicate.MustParse("x@0 == 1 && x@1 == 1")
	rng := stats.NewRNG(cfg.Seed + 99)

	// The clock fleets share one RNG stream across every trial, so draw
	// them sequentially in (ratio, trial) order before fanning out; the
	// simulated trials themselves are independent and parallelize freely.
	type point struct {
		ratio  float64
		fleets [][]clock.EpsilonSynced // one per trial
	}
	points := make([]point, len(ratios))
	for ri, ratioV := range ratios {
		points[ri].ratio = ratioV
		for range trials {
			points[ri].fleets = append(points[ri].fleets, clock.NewEpsilonFleet(rng, 2, eps))
		}
	}

	type outcome struct{ fn, fp bool }
	outcomes := sweep(cfg, points, trials, func(pt point, trial uint64) outcome {
		overlap := sim.Duration(pt.ratio * float64(eps))
		fleet := pt.fleets[trial]
		eng := sim.NewEngine(trial)
		checker := core.NewPhysicalChecker(eng, 2, pred, 50*sim.Millisecond)

		// True pulses: p0 [t0, t0+L); p1 [t0+L-overlap, t0+2L-overlap)
		// → true overlap is exactly `overlap`.
		const L = 200 * sim.Millisecond
		t0 := 100 * sim.Millisecond
		events := []struct {
			proc int
			at   sim.Time
			val  float64
		}{
			{0, t0, 1},
			{1, t0 + L - overlap, 1},
			{0, t0 + L, 0},
			{1, t0 + 2*L - overlap, 0},
		}
		for _, ev := range events {
			ev := ev
			eng.At(ev.at, func(now sim.Time) {
				checker.OnReport(core.ReportMsg{
					Proc: ev.proc, Var: "x", Value: ev.val,
					TS: fleet[ev.proc].Read(now),
				}, now)
			})
		}
		eng.RunAll()
		checker.Finish(sim.Second)
		occ := checker.Occurrences()
		return outcome{fn: len(occ) == 0, fp: len(occ) > 1}
	})
	for ri, pt := range points {
		var fn, fp int
		for _, o := range outcomes[ri] {
			if o.fn {
				fn++
			}
			if o.fp {
				fp++
			}
		}
		t.AddRow(fmt.Sprintf("%.2f", pt.ratio), sim.Duration(pt.ratio*float64(eps)), trials,
			float64(fn)/float64(trials), float64(fp)/float64(trials))
	}
	t.Notes = append(t.Notes,
		"expected shape: FN-rate > 0 below overlap/ε' = 1, falling to 0 above it",
		"FN occurs when the drawn skew difference exceeds the true overlap and timestamp order inverts")
	return t
}
