package experiments

import (
	"fmt"

	"pervasive/internal/clock"
	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/network"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// clockVector keeps trimExecution's signature readable.
type clockVector = clock.Vector

// pulseWorkload builds the standard racy workload used across
// experiments: n sensors, each watching a toggling boolean attribute, and
// the global predicate "at least k of n are up". Thresholded counts flip
// often and race whenever two sensors toggle within Δ of each other —
// exactly the regime Section 3.3 analyses.
type pulseWorkload struct {
	N         int
	K         int
	MeanHigh  sim.Duration
	MeanLow   sim.Duration
	Kind      core.ClockKind
	Delay     sim.DelayModel
	Epsilon   sim.Duration
	Horizon   sim.Time
	LogStamps bool
	Topo      network.Topology
	Flood     bool
	Faults    *faults.Plan
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
		Epsilon: pw.Epsilon, Horizon: pw.Horizon, LogStamps: pw.LogStamps,
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
	workload.Install(h.Eng, h.World, src.Events(pw.Horizon))
	if pw.LogStamps {
		for _, s := range h.Sensors {
			s.LogStamps = true
		}
	}
	return h
}

func (pw pulseWorkload) run(seed uint64) core.Results {
	return pw.build(seed).Run()
}

// trimExecution cuts every process's stamp sequence to its first p events
// and clamps stamp components to the kept prefix lengths (an event that
// knew more than p events of a peer knows "all kept ones" in the trimmed
// execution). Without clamping, dangling references would make valid cuts
// look inconsistent.
func trimExecution(stamps [][]clockVector, times [][]sim.Time, p int) bool {
	for i := range stamps {
		if len(stamps[i]) < p {
			return false
		}
		stamps[i] = stamps[i][:p]
		times[i] = times[i][:p]
	}
	for i := range stamps {
		for _, v := range stamps[i] {
			for j := range v {
				if j < len(stamps) && v[j] > uint64(p) {
					v[j] = uint64(p) //lint:allow clockrule(offline trimming of recorded stamps to a prefix workload, not live protocol state)
				}
			}
		}
	}
	return true
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
