package experiments

import (
	"fmt"

	"pervasive/internal/clock"
	"pervasive/internal/core"
	"pervasive/internal/runner"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// E4ScalarVectorEquivalence reproduces §4.2.3 item 5: "When synchronous
// communication is used, i.e., when Δ = 0, and the protocol strobes at
// each relevant event, strobe vectors can be replaced by strobe scalars
// without sacrificing correctness or accuracy. This is not so for the
// causality-based clocks even if Δ = 0; Mattern/Fidge clocks are still
// more powerful than Lamport clocks."
func E4ScalarVectorEquivalence(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E4",
		Title: "scalar vs vector strobes at Δ=0 and Δ>0; Lamport vs Mattern/Fidge",
		Claim: "\"when Δ=0 … strobe vectors can be replaced by strobe scalars without " +
			"sacrificing correctness or accuracy. This is not so for the causality-based " +
			"clocks even if Δ=0\" (§4.2.3 item 5)",
		Header: []string{"comparison", "Δ", "seeds", "identical-confusions",
			"unflagged-errs(vec)", "unflagged-errs(scalar)"},
	}
	seeds := cfg.pick(8, 3)

	compare := func(delay sim.DelayModel) (identical int, vecErrs, scaErrs int64) {
		type pair struct{ v, sc stats.Confusion }
		pairs := runner.Map(cfg.Parallelism, seeds, func(s int) pair {
			mk := func(kind core.ClockKind) stats.Confusion {
				return pulseWorkload{
					N: 4, K: 3,
					MeanHigh: 300 * sim.Millisecond, MeanLow: 400 * sim.Millisecond,
					Kind: kind, Delay: delay,
					Horizon: sim.Time(cfg.pick(60, 15)) * sim.Second,
					Faults:  cfg.Faults,
				}.run(cfg.Seed + uint64(s)).Confusion
			}
			return pair{v: mk(core.VectorStrobe), sc: mk(core.ScalarStrobe)}
		})
		for _, p := range pairs {
			v, sc := p.v, p.sc
			if v.TP == sc.TP && v.FP == sc.FP && v.FN == sc.FN {
				identical++
			}
			// Certifiable accuracy: errors the checker could NOT place in
			// the borderline bin. Vectors flag race-affected errors;
			// scalars cannot flag anything.
			vecErrs += (v.FP - v.BorderlineFP) + (v.FN - v.BorderlineFN)
			scaErrs += (sc.FP - sc.BorderlineFP) + (sc.FN - sc.BorderlineFN)
		}
		return identical, vecErrs, scaErrs
	}

	idSync, vecSync, scaSync := compare(sim.Synchronous{})
	t.AddRow("strobe scalar vs vector", "0", seeds, idSync, vecSync, scaSync)
	idAsync, vecAsync, scaAsync := compare(sim.NewDeltaBounded(250 * sim.Millisecond))
	t.AddRow("strobe scalar vs vector", "250ms", seeds, idAsync, vecAsync, scaAsync)

	// Causal clocks: even with instant delivery, Lamport scalars order
	// concurrent events (cannot certify concurrency) while vectors
	// classify them exactly. Measure on random message-passing runs.
	ordered, concurrent := causalComparison(cfg.Seed, cfg.pick(2000, 300))
	t.AddRow("Lamport orders concurrent pairs", "0", seeds,
		"-", ordered, "-")
	t.Notes = append(t.Notes,
		"row 1 must be fully identical with zero unflagged errors on both sides; "+
			"in row 2 the raw confusions still coincide (both checkers apply the same arrival stream) "+
			"but only the vector can certify its race-affected errors — the scalar's unflagged-error "+
			"count is what §3.3 means by scalars 'also' producing false positives",
		f("causal comparison: of %d truly concurrent event pairs, Lamport stamps impose an order on %d (all of them with distinct stamps); Mattern/Fidge certify all %d as concurrent",
			concurrent, ordered, concurrent))
	return t
}

// f is a tiny alias for fmt.Sprintf used in notes.
func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// causalComparison generates random message-passing executions stamped
// with both Lamport and vector clocks, then counts truly concurrent pairs
// and how many of them the Lamport order still ranks.
func causalComparison(seed uint64, steps int) (lamportOrdered, concurrent int64) {
	r := stats.NewRNG(seed)
	const n = 4
	type ev struct {
		lam uint64
		vec clock.Vector
	}
	lams := make([]*clock.Lamport, n)
	vecs := make([]*clock.VectorClock, n)
	for i := range lams {
		lams[i] = &clock.Lamport{}
		vecs[i] = clock.NewVectorClock(i, n)
	}
	type mail struct {
		lam uint64
		vec clock.Vector
	}
	var inflight []mail
	var events []ev
	for s := 0; s < steps; s++ {
		p := r.Intn(n)
		switch op := r.Intn(3); {
		case op == 2 && len(inflight) > 0:
			mi := r.Intn(len(inflight))
			m := inflight[mi]
			inflight = append(inflight[:mi], inflight[mi+1:]...)
			events = append(events, ev{lam: lams[p].Receive(m.lam), vec: vecs[p].Receive(m.vec)})
		case op == 1:
			l, v := lams[p].Send(), vecs[p].Send()
			inflight = append(inflight, mail{lam: l, vec: v})
			events = append(events, ev{lam: l, vec: v})
		default:
			events = append(events, ev{lam: lams[p].Tick(), vec: vecs[p].Tick()})
		}
	}
	for i := range events {
		for j := i + 1; j < len(events); j++ {
			if events[i].vec.ConcurrentWith(events[j].vec) {
				concurrent++
				if events[i].lam != events[j].lam {
					lamportOrdered++
				}
			}
		}
	}
	return lamportOrdered, concurrent
}
