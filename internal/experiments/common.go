package experiments

import (
	"fmt"

	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/network"
	"pervasive/internal/predicate"
	"pervasive/internal/runner"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// pulseWorkload builds the standard racy workload used across
// experiments: n sensors, each watching a toggling boolean attribute, and
// the global predicate "at least k of n are up". Thresholded counts flip
// often and race whenever two sensors toggle within Δ of each other —
// exactly the regime Section 3.3 analyses.
type pulseWorkload struct {
	N        int
	K        int
	MeanHigh sim.Duration
	MeanLow  sim.Duration
	Kind     core.ClockKind
	Delay    sim.DelayModel
	Epsilon  sim.Duration
	Horizon  sim.Time
	Record   bool
	Topo     network.Topology
	Flood    bool
	Faults   *faults.Plan
	// Source overrides the default toggler fleet (E16's generator sweep);
	// the seed passed to build is ignored for the workload when set.
	Source func(seed uint64) workload.Source
}

func (pw pulseWorkload) pred() predicate.Cond {
	return predicate.MustParse(fmt.Sprintf("sum(p) >= %d", pw.K))
}

// build wires the harness; the caller runs it.
func (pw pulseWorkload) build(seed uint64) *core.Harness {
	h := core.NewHarness(core.HarnessConfig{
		Seed: seed, N: pw.N, Kind: pw.Kind, Delay: pw.Delay,
		Pred: pw.pred(), Modality: predicate.Instantaneously,
		Epsilon: pw.Epsilon, Horizon: pw.Horizon, Record: pw.Record,
		Topo: pw.Topo, Flood: pw.Flood, Faults: pw.Faults,
	})
	for i := 0; i < pw.N; i++ {
		obj := h.World.AddObject(fmt.Sprintf("obj-%d", i), nil)
		h.Bind(i, obj, "p", "p")
	}
	// The toggler fleet is a materialized workload.Source: the same
	// stream discipline at any engine, recordable, and swappable for the
	// statistical generators E16 sweeps.
	var src workload.Source
	if pw.Source != nil {
		src = pw.Source(seed)
	} else {
		src = workload.TogglerFleet{
			Seed: workload.DeriveSeed(seed, 0x2), N: pw.N, Attr: "p",
			MeanHigh: pw.MeanHigh, MeanLow: pw.MeanLow,
		}
	}
	h.Install(src)
	return h
}

func (pw pulseWorkload) run(seed uint64) core.Results {
	return pw.build(seed).Run()
}

// sweep runs run(point, s) for every sweep point and seed index s in
// [0, seeds) as one runner.Map fan-out, jobs point-major, and returns the
// results grouped by point, each in seed order. Collection is by job
// index, so aggregation over the groups is byte-identical at every
// Parallelism.
func sweep[P, T any](cfg RunConfig, points []P, seeds int, run func(P, uint64) T) [][]T {
	flat := runner.Map(cfg.Parallelism, len(points)*seeds, func(i int) T {
		return run(points[i/seeds], uint64(i%seeds))
	})
	out := make([][]T, len(points))
	for i := range out {
		out[i] = flat[i*seeds : (i+1)*seeds]
	}
	return out
}

// fmtDelta renders a delay model compactly for table rows.
func fmtDelta(d sim.DelayModel) string {
	if d == nil {
		return "-"
	}
	b := d.Bound()
	if b == sim.Never {
		return "unbounded"
	}
	return b.String()
}

// ratio formats a/b defensively.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
