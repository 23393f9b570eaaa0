package scenario

import (
	"fmt"

	"pervasive/internal/core"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// HospitalConfig parameterizes the hospital scenario of Section 5: RFID
// badges on visitors and patients; sensors monitor the waiting room's
// doors and the infectious-diseases ward's entrance. Two alarms are
// supported:
//
//   - Overcrowding: waiting-room occupancy above WaitingCapacity
//     (Σ(xᵢ−yᵢ) > cap over the waiting-room door sensors);
//   - Restricted entry: any visitor inside the infectious ward
//     (ward occupancy > 0).
//
// The default workload is the workload.Admissions generator.
type HospitalConfig struct {
	Run
	WaitingDoors    int
	WaitingCapacity int
	// Alarm selects which predicate to detect: "crowding" (default) or
	// "ward".
	Alarm       string
	MeanArrival sim.Duration
	MeanStay    sim.Duration
	// WardMeanVisit is the mean gap between (disallowed) ward entries.
	WardMeanVisit sim.Duration
}

func (c *HospitalConfig) fill() {
	if c.WaitingDoors <= 0 {
		c.WaitingDoors = 2
	}
	if c.WaitingCapacity <= 0 {
		c.WaitingCapacity = 20
	}
	if c.Alarm == "" {
		c.Alarm = "crowding"
	}
	if c.MeanArrival <= 0 {
		c.MeanArrival = 2 * sim.Second
	}
	if c.MeanStay <= 0 {
		c.MeanStay = 40 * sim.Second
	}
	if c.WardMeanVisit <= 0 {
		c.WardMeanVisit = 30 * sim.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = 5 * sim.Minute
	}
}

// Hospital is a wired hospital scenario. Sensor processes: one per
// waiting-room door (attributes "x" and "y"), plus the last one at the
// ward entrance ("occupancy").
type Hospital struct {
	Cfg HospitalConfig
	Wired
	// Alarms counts raised alarms (actuation hook).
	Alarms int
}

// NewHospital wires the scenario.
func NewHospital(cfg HospitalConfig) *Hospital {
	cfg.fill()
	wardProc := cfg.WaitingDoors // workload.Admissions's ward object

	var pred predicate.Cond
	switch cfg.Alarm {
	case "crowding":
		pred = OccupancyPredicate(cfg.WaitingCapacity)
	case "ward":
		pred = predicate.MustParse(fmt.Sprintf("occupancy@%d > 0", wardProc))
	default:
		panic("scenario: unknown hospital alarm " + cfg.Alarm)
	}
	src := workload.Admissions{
		Seed:          workload.DeriveSeed(cfg.Seed, 0x2),
		Doors:         cfg.WaitingDoors,
		MeanArrival:   cfg.MeanArrival,
		MeanStay:      cfg.MeanStay,
		WardMeanVisit: cfg.WardMeanVisit,
	}
	hp := &Hospital{Cfg: cfg, Wired: build(cfg.Run, pred, wardProc+1, src)}
	if ck := hp.Harness.Tree; ck != nil {
		ck.Notify = func(core.Occurrence) { hp.Alarms++ }
	}
	return hp
}
