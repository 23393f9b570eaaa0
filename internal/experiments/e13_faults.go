package experiments

import (
	"fmt"

	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/network"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/world"
)

// E13CrashChurn stresses §4.2.2's graceful-degradation claim along the
// crash/recovery axis: sensors crash at a Poisson-ish rate, stay down for
// a fixed outage, and rejoin with fresh clocks under a bumped epoch. The
// sweep crosses strobe kind (vector vs scalar) and broadcast mode (direct
// vs flood over a ring) against crash rate, reporting recall, precision
// and mean detection latency. Each seed's fault plan is drawn inside its
// own job from a seed-derived RNG, so the table is byte-identical at any
// parallelism.
func E13CrashChurn(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E13",
		Title: "detection quality under crash/recovery churn",
		Claim: "degradation stays local: crashes cost recall roughly in proportion to " +
			"downtime, without corrupting post-recovery detection (§4.2.2 extended to " +
			"process failures)",
		Header: []string{"kind", "bcast", "crash/min", "crashes", "recall", "precision", "latency ms"},
	}
	const (
		n       = 4
		k       = 3 // strict enough that one frozen sensor view matters
		outage  = 5 * sim.Second
		minGap  = 6 * sim.Second // keeps one process's outages disjoint
		tolSlop = 100 * sim.Millisecond
	)
	horizon := sim.Time(cfg.pick(60, 30)) * sim.Second
	seeds := cfg.pick(6, 2)
	rates := []int{0, 2, 6} // crashes per minute across the fleet

	type cell struct {
		kind  core.ClockKind
		flood bool
	}
	cells := []cell{
		{core.VectorStrobe, false},
		{core.ScalarStrobe, false},
		{core.VectorStrobe, true},
		{core.ScalarStrobe, true},
	}

	type point struct {
		cell cell
		rate int
	}
	var points []point
	for _, c := range cells {
		for _, r := range rates {
			points = append(points, point{c, r})
		}
	}

	type out struct {
		crashes int
		conf    stats.Confusion
		latSum  sim.Duration
		latN    int
	}
	results := sweep(cfg, points, seeds, func(j point, s uint64) out {
		seed := cfg.Seed + s
		plan := churnPlan(seed, j.rate, n, horizon, outage, minGap)
		pw := pulseWorkload{
			N: n, K: k,
			MeanHigh: 700 * sim.Millisecond, MeanLow: 900 * sim.Millisecond,
			Kind:    j.cell.kind,
			Delay:   sim.NewDeltaBounded(20 * sim.Millisecond),
			Horizon: horizon,
			Faults:  plan,
		}
		if j.cell.flood {
			pw.Topo = network.Ring{Nodes: n + 1}
			pw.Flood = true
		}
		res := pw.run(seed)
		o := out{conf: res.Confusion}
		if plan != nil {
			o.crashes = len(plan.Events) / 2
		}
		// Detection latency: per matched truth interval, the gap from the
		// interval's true start to its first overlapping detection.
		for _, tv := range res.Truth {
			for _, occ := range res.Occurrences {
				w := world.Interval{Start: occ.Start - tolSlop, End: occ.End + tolSlop}
				if w.Overlap(tv) > 0 {
					if d := occ.Start - tv.Start; d > 0 {
						o.latSum += d
					}
					o.latN++
					break
				}
			}
		}
		return o
	})

	for pi, pt := range points {
		var agg out
		var tp, fn, fp int64
		for _, o := range results[pi] {
			agg.crashes += o.crashes
			agg.latSum += o.latSum
			agg.latN += o.latN
			tp += o.conf.TP
			fn += o.conf.FN
			fp += o.conf.FP
		}
		recall := ratio(tp, tp+fn)
		precision := ratio(tp, tp+fp)
		latMs := 0.0
		if agg.latN > 0 {
			latMs = float64(agg.latSum) / float64(agg.latN) / float64(sim.Millisecond)
		}
		bcast := "direct"
		if pt.cell.flood {
			bcast = "flood"
		}
		t.AddRow(pt.cell.kind.String(), bcast, pt.rate, agg.crashes, recall, precision, latMs)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("each crash keeps its process down %v; recovery rejoins with a fresh clock under a bumped epoch", outage),
		"recall falls with crash rate (outage events go unobserved) while the zero-churn rows match E1's regime",
		"flood rows pay extra hops (ring overlay) but survive the same churn — redundancy is orthogonal to crashes")
	return t
}

// churnPlan draws a deterministic crash/recovery schedule: rate crashes
// per minute across the fleet, uniform over [outage, horizon-outage),
// victims uniform over the n sensors, retrying draws that would overlap
// an existing outage of the same process. Rate 0 yields a nil plan (the
// fault-free fast path).
func churnPlan(seed uint64, ratePerMin, n int, horizon sim.Time, outage, minGap sim.Duration) *faults.Plan {
	if ratePerMin <= 0 {
		return nil
	}
	count := int((int64(ratePerMin)*int64(horizon) + int64(sim.Minute)/2) / int64(sim.Minute))
	if count == 0 {
		return nil
	}
	rng := stats.NewRNG(seed*0x9e3779b9 + uint64(ratePerMin))
	taken := make([][]sim.Time, n) // crash starts per proc
	plan := faults.NewPlan()
	for c := 0; c < count; c++ {
		for attempt := 0; attempt < 32; attempt++ {
			proc := int(rng.Int63n(int64(n)))
			at := sim.Time(rng.Int63n(int64(horizon - 2*outage)))
			ok := true
			for _, prev := range taken[proc] {
				d := at - prev
				if d < 0 {
					d = -d
				}
				if d < sim.Time(minGap) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			taken[proc] = append(taken[proc], at)
			plan.Crash(proc, at).Recover(proc, at+sim.Time(outage))
			break
		}
	}
	if plan.Empty() {
		return nil
	}
	return plan
}
