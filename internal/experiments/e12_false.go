package experiments

import (
	"pervasive/internal/core"
	"pervasive/internal/lattice"
	"pervasive/internal/sim"
)

// E12FalseCausality reproduces the warning at the end of §4.2: strobe
// control messages "induce a partial order that is arbitrarily determined
// at run-time and hence artificial"; using the strobe clock as a causality
// tracker "will introduce false causality induced by the strobes … and
// eliminate possible equivalent consistent global states." Independent
// world events (no covert channels at all) are stamped by strobe vector
// clocks; any ordering between events of different sensors is false
// causality, and the shrinkage of the consistent-state lattice relative to
// the true (fully concurrent) lattice is the loss of equivalent states.
func E12FalseCausality(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E12",
		Title: "false causality injected by strobes on independent world events",
		Claim: "\"if our map of the physical world is also tracking causality, that clock " +
			"should necessarily be different from the strobe clock … [else it] will " +
			"introduce false causality … and eliminate possible equivalent consistent " +
			"global states\" (§4.2)",
		Header: []string{"Δ", "cross pairs", "strobe-ordered", "fraction",
			"lattice (strobe)", "lattice (true)"},
	}
	deltas := []sim.Duration{0, 50 * sim.Millisecond, 500 * sim.Millisecond, 5 * sim.Second}
	if cfg.Quick {
		deltas = []sim.Duration{0, 500 * sim.Millisecond}
	}

	const n, p = 3, 4
	type outcome struct {
		ok                         bool
		delay                      sim.DelayModel
		cross, ordered             int64
		strobeLattice, trueLattice int64
	}
	outcomes := sweep(cfg, deltas, 1, func(delta sim.Duration, _ uint64) outcome {
		var delay sim.DelayModel = sim.Synchronous{}
		if delta > 0 {
			delay = sim.NewDeltaBounded(delta)
		}
		pw := pulseWorkload{
			N: n, K: n,
			MeanHigh: 400 * sim.Millisecond, MeanLow: 600 * sim.Millisecond,
			Kind: core.VectorStrobe, Delay: delay,
			Horizon: 30 * sim.Second, Record: true,
			Faults: cfg.Faults,
		}
		h := pw.build(cfg.Seed)
		h.Run()
		ex, full := h.LatticeExecution().Prefix(p)
		if !full {
			return outcome{}
		}

		// The world events are independent (pure togglers, no covert
		// rules): every cross-process pair is truly concurrent. Count how
		// many of them the strobe stamps order.
		o := outcome{ok: true, delay: delay, trueLattice: 1}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for _, si := range ex.Stamps[i] {
					for _, sj := range ex.Stamps[j] {
						o.cross++
						if !si.ConcurrentWith(sj) {
							o.ordered++
						}
					}
				}
			}
		}
		o.strobeLattice = ex.Survey(lattice.SurveyOptions{}).Count
		for i := 0; i < n; i++ {
			o.trueLattice *= int64(len(ex.Stamps[i]) + 1)
		}
		return o
	})
	for _, seeded := range outcomes {
		o := seeded[0]
		if !o.ok {
			continue
		}
		t.AddRow(fmtDelta(o.delay), o.cross, o.ordered, ratio(o.ordered, o.cross),
			o.strobeLattice, o.trueLattice)
	}
	t.Notes = append(t.Notes,
		"all world events here are causally independent; any strobe-imposed order is false causality",
		"expected shape: at Δ=0 nearly every cross pair is falsely ordered and the lattice collapses to a chain; "+
			"as Δ grows the strobe order thins and the lattice approaches the true (p+1)^n",
		"conclusion (§4.2): keep strobe clocks separate from causality-tracking clocks",
	)
	return t
}
