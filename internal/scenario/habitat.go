package scenario

import (
	"fmt"

	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// HabitatConfig parameterizes an in-the-wild habitat-monitoring
// deployment — the paper's motivating regime for strobe clocks: no
// physically synchronized clock service is available or affordable, and
// lifeform movement is slow relative to Δ. Sensors at waterholes detect
// animal presence; the predicate is "at least K waterholes occupied at the
// same instant" (e.g. herd congregation).
type HabitatConfig struct {
	Run
	Waterholes int
	K          int // congregation threshold
	// MeanVisit/MeanAbsence shape animal presence at each waterhole; in
	// the wild both are long relative to Δ.
	MeanVisit   sim.Duration
	MeanAbsence sim.Duration
}

func (c *HabitatConfig) fill() {
	if c.Waterholes <= 0 {
		c.Waterholes = 5
	}
	if c.K <= 0 {
		c.K = 2
	}
	if c.MeanVisit <= 0 {
		c.MeanVisit = 2 * sim.Minute
	}
	if c.MeanAbsence <= 0 {
		c.MeanAbsence = 3 * sim.Minute
	}
	if c.Delay == nil {
		// Multi-hop wild-area network: delays of hundreds of ms to s.
		c.Delay = sim.NewDeltaBounded(2 * sim.Second)
	}
	if c.Horizon <= 0 {
		c.Horizon = sim.Hour
	}
}

// Habitat is a wired habitat-monitoring scenario; Objects[i] is
// waterhole i, with attribute "present".
type Habitat struct {
	Cfg HabitatConfig
	Wired
}

// NewHabitat wires the scenario: one sensor per waterhole, each
// waterhole's presence a workload.Toggler of the fleet.
func NewHabitat(cfg HabitatConfig) *Habitat {
	cfg.fill()
	pred := predicate.MustParse(fmt.Sprintf("sum(present) >= %d", cfg.K))
	src := workload.TogglerFleet{
		Seed: workload.DeriveSeed(cfg.Seed, 0x2), N: cfg.Waterholes, Attr: "present",
		MeanHigh: cfg.MeanVisit, MeanLow: cfg.MeanAbsence,
	}
	return &Habitat{Cfg: cfg, Wired: build(cfg.Run, pred, cfg.Waterholes, src)}
}
