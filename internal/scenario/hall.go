// Package scenario builds the paper's application scenarios (Section 5)
// on top of the detection harness: the convention-center exhibition hall,
// the hospital ward and its proximity alarm, an in-the-wild
// habitat-monitoring deployment, the smart office of Sections 3.1/3.3,
// the sharded sensor fleet, and any workload spec. Each builder returns a
// wired harness ready to Run, so examples, the CLI, and the experiment
// suite share one implementation.
//
// Scenario activity comes from internal/workload Sources: hall, hospital,
// habitat, proximity and spec differ only in their stream, predicate and
// fleet size, and one builder wires them all (see Run and Wired). It
// materializes the workload up front and pumps it through the engine, so
// any of their runs can be recorded to a trace and replayed
// byte-identically (pass a decoded trace as Run.Workload); so can scale's.
// The one exception is the office: its thermostat walk reads what
// actuation writes, a closed loop no materialized stream can hold.
package scenario

import (
	"fmt"

	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// HallConfig parameterizes the exhibition-hall occupancy monitor: d doors,
// each with an RFID sensor tracking xᵢ (people entered through door i) and
// yᵢ (people left through it); the predicate is Σ(xᵢ−yᵢ) > Capacity,
// detected under Instantaneously to prevent overcrowding. The default
// workload is the workload.HallTraffic generator derived from Seed,
// MeanArrival, MeanStay and InitialOccupancy.
type HallConfig struct {
	Run
	Doors    int
	Capacity int
	// MeanArrival is the mean gap between visitor arrivals; MeanStay is a
	// visitor's mean dwell time inside the hall.
	MeanArrival sim.Duration
	MeanStay    sim.Duration
	// InitialOccupancy seeds the hall with visitors already inside
	// (spread across doors' entry counters) so runs start near capacity.
	InitialOccupancy int
}

func (c *HallConfig) fill() {
	if c.Doors <= 0 {
		c.Doors = 4
	}
	if c.Capacity <= 0 {
		c.Capacity = 200
	}
	if c.MeanArrival <= 0 {
		c.MeanArrival = 500 * sim.Millisecond
	}
	if c.MeanStay <= 0 {
		c.MeanStay = 100 * sim.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = 5 * sim.Minute
	}
}

// Hall is a wired exhibition-hall scenario; Objects[i] is door i, with
// attributes "x" and "y".
type Hall struct {
	Cfg HallConfig
	Wired
}

// OccupancyPredicate returns Σx − Σy > capacity.
func OccupancyPredicate(capacity int) predicate.Cond {
	return predicate.MustParse(fmt.Sprintf("sum(x) - sum(y) > %d", capacity))
}

// NewHall wires the scenario: one sensor per door, Poisson visitor flow
// with occupancy-dependent departures (every exit consumes one prior
// entry, so Σx − Σy ≥ 0 at every instant, and stays that would cross the
// horizon depart at the horizon instead of vanishing — see
// workload.HallTraffic).
func NewHall(cfg HallConfig) *Hall {
	cfg.fill()
	src := workload.HallTraffic{
		Seed:             workload.DeriveSeed(cfg.Seed, 0x2),
		Doors:            cfg.Doors,
		MeanArrival:      cfg.MeanArrival,
		MeanStay:         cfg.MeanStay,
		InitialOccupancy: cfg.InitialOccupancy,
	}
	return &Hall{Cfg: cfg, Wired: build(cfg.Run, OccupancyPredicate(cfg.Capacity), cfg.Doors, src)}
}
