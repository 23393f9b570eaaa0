package experiments

import (
	"pervasive/internal/checker"
	"pervasive/internal/core"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

func init() {
	Ablations = append(Ablations, Experiment{
		"A7", "replicated in-network checkers: view divergence vs Δ",
		A7DistributedCheckers, 4,
	})
}

// A7DistributedCheckers replaces the distinguished root P0 with a checker
// replica at every sensor — possible because strobes are system-wide
// broadcasts. Each replica sees the same strobes in its own arrival
// order, so replica views of the predicate diverge transiently; the
// divergence is the fraction of time two replicas disagree, and it should
// scale with Δ and vanish at Δ=0.
func A7DistributedCheckers(cfg RunConfig) *Table {
	t := &Table{
		ID:     "A7",
		Title:  "view divergence between replicated checkers vs Δ",
		Claim:  "extension of §2.1's 'common configuration': detection without a distinguished P0",
		Header: []string{"Δ", "mean pairwise divergence", "max", "vs-P0 divergence", "recall(replica0)"},
	}
	deltas := []sim.Duration{0, 20 * sim.Millisecond, 100 * sim.Millisecond,
		500 * sim.Millisecond}
	if cfg.Quick {
		deltas = []sim.Duration{0, 100 * sim.Millisecond}
	}
	seeds := cfg.pick(5, 2)

	type outcome struct {
		pair, vsP0 []float64
		conf       stats.Confusion
	}
	outcomes := sweep(cfg, deltas, seeds, func(delta sim.Duration, s uint64) outcome {
		var delay sim.DelayModel = sim.Synchronous{}
		if delta > 0 {
			delay = sim.NewDeltaBounded(delta)
		}
		pw := pulseWorkload{
			N: 4, K: 3,
			MeanHigh: 400 * sim.Millisecond, MeanLow: 600 * sim.Millisecond,
			Kind: core.VectorStrobe, Delay: delay,
			Horizon: sim.Time(cfg.pick(40, 15)) * sim.Second,
			Faults:  cfg.Faults,
		}
		h := pw.build(cfg.Seed + s)
		// Attach a replica to every sensor.
		replicas := make([]*checker.Tree, pw.N)
		for i, sn := range h.Sensors {
			replicas[i] = checker.New(checker.Config{N: pw.N, Pred: pw.pred(), RaceAware: true})
			sn.Local = replicas[i]
		}
		res := h.Run()
		horizon := res.Horizon
		for _, r := range replicas {
			r.Finish(horizon)
		}
		var o outcome
		for i := 0; i < pw.N; i++ {
			for j := i + 1; j < pw.N; j++ {
				o.pair = append(o.pair, core.Divergence(replicas[i].Occurrences(),
					replicas[j].Occurrences(), horizon))
			}
			o.vsP0 = append(o.vsP0, core.Divergence(replicas[i].Occurrences(),
				res.Occurrences, horizon))
		}
		// Score replica 0 against ground truth like any detector.
		o.conf = core.Score(replicas[0].Occurrences(), res.Truth, nil,
			h.Tol(), horizon)
		return o
	})
	for di, delta := range deltas {
		var pair, worst, vsP0 stats.Online
		var agg stats.Confusion
		for _, o := range outcomes[di] {
			for _, d := range o.pair {
				pair.Add(d)
				worst.Add(d)
			}
			for _, d := range o.vsP0 {
				vsP0.Add(d)
			}
			agg.Add(o.conf)
		}
		t.AddRow(fmtDelta(sim.NewDeltaBounded(delta)), pair.Mean(), worst.Max(),
			vsP0.Mean(), agg.Recall())
	}
	t.Notes = append(t.Notes,
		"expected shape: divergence ≈ 0 at Δ=0 and grows ~linearly with Δ (disagreement windows are O(Δ) per flip)",
		"replica accuracy matches the central checker: in-network detection costs consistency, not correctness")
	return t
}
