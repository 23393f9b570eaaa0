package experiments

import (
	"fmt"

	"pervasive/internal/core"
	"pervasive/internal/lattice"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// E3SlimLattice reproduces the slim lattice postulate of §4.2.4: strobe
// control messages prune the O(pⁿ) lattice of consistent global states;
// the faster the strobes propagate, the leaner the lattice; with Δ=0 the
// consistent cuts form a linear order of n·p + 1 states; with no strobes
// delivered at all, every cut is consistent.
//
// The sweep runs two size blocks. The first (n=4, p=4, up to 625 cuts) is
// the historical table; the second (n=6, p=6, up to 7⁶ = 117 649 cuts)
// exercises the O(pⁿ) regime the paper actually argues about and is only
// tractable because the Survey engine walks each lattice once, level by
// level, instead of recursively enumerating it per statistic.
func E3SlimLattice(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E3",
		Title: "consistent-cut count vs strobe delay (blocks: n=4 p=4, n=6 p=6)",
		Claim: "\"the faster the strobe transmissions, the leaner is the lattice. " +
			"When Δ = 0, the result is a linear order of np states\" (§4.2.4)",
		Header: []string{"regime", "Δ", "consistent cuts", "of possible", "width"},
	}

	blocks := []struct{ n, p int }{{4, 4}, {6, 6}}
	regimes := []struct {
		name  string
		delay sim.DelayModel
	}{
		{"Δ=0 (synchronous)", sim.Synchronous{}},
		{"Δ-bounded", sim.NewDeltaBounded(20 * sim.Millisecond)},
		{"Δ-bounded", sim.NewDeltaBounded(200 * sim.Millisecond)},
		{"Δ-bounded", sim.NewDeltaBounded(2 * sim.Second)},
		{"Δ-bounded", sim.NewDeltaBounded(20 * sim.Second)},
		{"no strobes delivered", sim.WithLoss{Inner: sim.Synchronous{}, P: 1}},
	}
	seeds := cfg.pick(5, 2)

	// One job per (block, regime, seed); the ordered walk below reproduces
	// the sequential aggregation (Online means in seed order, `possible`
	// from the last seed whose execution survived trimming).
	type point struct{ block, regime int }
	var points []point
	for bi := range blocks {
		for ri := range regimes {
			points = append(points, point{bi, ri})
		}
	}
	type outcome struct {
		ok          bool
		cuts, width float64
		possible    int64
	}
	outcomes := sweep(cfg, points, seeds, func(pt point, s uint64) outcome {
		blk := blocks[pt.block]
		// Run long enough to collect ≥ p events per sensor, then trim.
		pw := pulseWorkload{
			N: blk.n, K: blk.n, // predicate irrelevant here
			MeanHigh: 400 * sim.Millisecond, MeanLow: 600 * sim.Millisecond,
			Kind: core.VectorStrobe, Delay: regimes[pt.regime].delay,
			Horizon: 30 * sim.Second,
			Record:  true,
			Faults:  cfg.Faults,
		}
		h := pw.build(cfg.Seed + s)
		h.Run()
		ex, full := h.LatticeExecution().Prefix(blk.p)
		if !full {
			return outcome{}
		}
		// Count and width from a single level-synchronous walk.
		res := ex.Survey(lattice.SurveyOptions{})
		return outcome{
			ok:       true,
			cuts:     float64(res.Count),
			width:    float64(res.Width),
			possible: ex.NumCuts(),
		}
	})
	for i, pt := range points {
		if blk := blocks[pt.block]; pt.block > 0 && pt.regime == 0 {
			t.AddRow(fmt.Sprintf("— n=%d, p=%d —", blk.n, blk.p), "", "", "", "")
		}
		var cuts, width stats.Online
		var possible int64
		for _, o := range outcomes[i] {
			if !o.ok {
				continue
			}
			cuts.Add(o.cuts)
			width.Add(o.width)
			possible = o.possible
		}
		reg := regimes[pt.regime]
		t.AddRow(reg.name, fmtDelta(reg.delay),
			cuts.Mean(), possible, width.Mean())
	}
	t.Notes = append(t.Notes,
		"Δ=0 row must equal n·p+1 = 17 with width 1 (a chain); the no-strobe row equals (p+1)^n = 625",
		"counts are means over seeds; events beyond the first p per sensor are trimmed",
		"n=6 block: Δ=0 must equal n·p+1 = 37; the no-strobe row equals (p+1)^n = 117649")
	return t
}
