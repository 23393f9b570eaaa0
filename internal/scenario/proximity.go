package scenario

import (
	"fmt"

	"pervasive/internal/core"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// ProximityConfig parameterizes §5's third hospital monitor: "we could
// raise alarms when a visitor approaches a patient whom he is not
// visiting." A visitor badge moves through the ward under random-waypoint
// mobility (workload.MobilityWalk, resting 5 s on average at each
// waypoint) while the patient badge stays in bed at the center,
// beaconing its position every second. Two sensors track the badges; the
// alarm predicate is squared-distance < Radius², a relational predicate
// over both sensors' variables, detected under Instantaneously.
type ProximityConfig struct {
	Run
	// W, H is the ward floor size; Radius the exclusion distance.
	W, H   float64
	Radius float64
	Speed  float64
}

func (c *ProximityConfig) fill() {
	if c.W == 0 {
		c.W = 20
	}
	if c.H == 0 {
		c.H = 20
	}
	if c.Radius == 0 {
		c.Radius = 3
	}
	if c.Speed == 0 {
		c.Speed = 1.3 // walking pace, m/s
	}
	if c.Horizon <= 0 {
		c.Horizon = 10 * sim.Minute
	}
}

// Proximity is a wired proximity-alarm scenario.
type Proximity struct {
	Cfg ProximityConfig
	Wired
	Visitor int // world objects
	Patient int
	Alarms  int
}

// NewProximity wires the scenario: sensor 0 tracks the visitor badge,
// sensor 1 the (stationary) patient badge, each through "x" and "y".
func NewProximity(cfg ProximityConfig) *Proximity {
	cfg.fill()
	pred := predicate.MustParse(fmt.Sprintf(
		"(x@0 - x@1) * (x@0 - x@1) + (y@0 - y@1) * (y@0 - y@1) < %g",
		cfg.Radius*cfg.Radius))
	// The patient's badge beacons its bed's position every second. A lone
	// report would not do: its y strobe can overtake its x, which the
	// checker then discards as stale, leaving the patient at x = 0 in its
	// view for the rest of the run.
	var bed workload.EventSource
	for at := sim.Time(0); at <= cfg.Horizon; at += sim.Second {
		bed = append(bed, workload.Event{At: at, Obj: 1, Attr: "x", Val: cfg.W / 2},
			workload.Event{At: at, Obj: 1, Attr: "y", Val: cfg.H / 2})
	}
	walk := workload.MobilityWalk{
		Seed: workload.DeriveSeed(cfg.Seed, 0x2), Obj: 0, W: cfg.W, H: cfg.H,
		Speed: cfg.Speed, Tick: 200 * sim.Millisecond, Pause: 5 * sim.Second,
	}
	p := &Proximity{Cfg: cfg, Wired: build(cfg.Run, pred, 2, workload.Combine(walk, bed))}
	p.Visitor, p.Patient = p.Objects[0], p.Objects[1]
	if ck := p.Harness.Checker; ck != nil {
		ck.Notify = func(core.Occurrence) { p.Alarms++ }
	}
	return p
}
