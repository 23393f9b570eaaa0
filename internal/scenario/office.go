package scenario

import (
	"fmt"

	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
	"pervasive/internal/world"
)

// OfficeConfig parameterizes the smart-office scenario of Sections 3.1 and
// 3.3: each room has a temperature sensor and a motion detector; the rule
// "person in room ∧ temp > 30 °C" is detected — under Definitely for the
// conjunctive contextual rule of Huang et al. [17], or Instantaneously for
// the thermostat-reset rule — and detection actuates the thermostat.
type OfficeConfig struct {
	Seed  uint64
	Rooms int
	// Modality: Definitely (default) or Possibly for the conjunctive
	// checker; Instantaneously for the strobe checker.
	Modality predicate.Modality
	Delay    sim.DelayModel
	Horizon  sim.Time
	// TempThreshold is the rule's trigger temperature (default 30).
	TempThreshold float64
	// Actuate resets every room's thermostat to 28 °C on detection,
	// closing the sense→detect→actuate loop.
	Actuate bool
	// MeanOccupied/MeanEmpty shape the motion workload.Toggler;
	// MeanTempStep the temperature walk.
	MeanOccupied sim.Duration
	MeanEmpty    sim.Duration
	MeanTempStep sim.Duration
	// Obs, if non-nil, receives runtime metrics (see core.HarnessConfig).
	Obs *obs.Registry
	// Faults, if non-nil, is the fault plan (see core.HarnessConfig).
	Faults *faults.Plan
	// FlightPerProc, when positive, attaches a causal flight recorder
	// keeping the last FlightPerProc events per process (sensors plus
	// checker); trigger-scoped dumps land in Harness.Dumps.
	FlightPerProc int
}

func (c *OfficeConfig) fill() {
	if c.Rooms <= 0 {
		c.Rooms = 1
	}
	if c.Delay == nil {
		c.Delay = sim.NewDeltaBounded(50 * sim.Millisecond)
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * sim.Minute
	}
	if c.TempThreshold == 0 {
		c.TempThreshold = 30
	}
	if c.MeanOccupied <= 0 {
		c.MeanOccupied = 8 * sim.Second
	}
	if c.MeanEmpty <= 0 {
		c.MeanEmpty = 4 * sim.Second
	}
	if c.MeanTempStep <= 0 {
		c.MeanTempStep = 500 * sim.Millisecond
	}
}

// Office is a wired smart-office scenario. Each room contributes two
// sensor processes: 2i (motion) and 2i+1 (temperature).
type Office struct {
	Cfg     OfficeConfig
	Harness *core.Harness
	Rooms   []int // world objects
	// Actuations counts thermostat resets performed.
	Actuations int
}

// NewOffice wires the scenario.
func NewOffice(cfg OfficeConfig) *Office {
	cfg.fill()
	n := 2 * cfg.Rooms
	// Global rule: every room satisfies (motion ∧ hot) — for one room this
	// is the paper's χ; for several it is the conjunction over rooms.
	var pred predicate.Cond
	for i := 0; i < cfg.Rooms; i++ {
		room := predicate.MustParse(fmt.Sprintf(
			"motion@%d == 1 && temp@%d > %g", 2*i, 2*i+1, cfg.TempThreshold))
		if pred == nil {
			pred = room
		} else {
			pred = predicate.And{L: pred, R: room}
		}
	}

	hcfg := core.HarnessConfig{
		Seed: cfg.Seed, N: n, Kind: core.VectorStrobe, Delay: cfg.Delay,
		Pred: pred, Modality: cfg.Modality, Horizon: cfg.Horizon,
		Obs: cfg.Obs, Faults: cfg.Faults, Flight: flightFor(cfg.FlightPerProc, n),
	}
	if cfg.Modality == predicate.Possibly || cfg.Modality == predicate.Definitely {
		// Local conjunct template: motion sensors report motion==1
		// intervals; temperature sensors report temp>threshold intervals.
		// A single template covering both: since each sensor has exactly
		// one variable, use "its value satisfies its role" via FuncCond.
		thr := cfg.TempThreshold
		hcfg.LocalConj = predicate.FuncCond{
			F: func(s predicate.State) bool {
				if m := s.Get(0, "motion"); m == 1 {
					return true
				}
				return s.Get(0, "temp") > thr
			},
			Keys: []predicate.Key{{Proc: 0, Name: "motion"}, {Proc: 0, Name: "temp"}},
			Desc: "local-motion-or-hot",
		}
	}
	h := core.NewHarness(hcfg)
	of := &Office{Cfg: cfg, Harness: h}

	for i := 0; i < cfg.Rooms; i++ {
		room := h.World.AddObject(fmt.Sprintf("room-%d", i), map[string]float64{"temp": 26})
		of.Rooms = append(of.Rooms, room)
		h.Bind(2*i, room, "motion", "motion")
		h.Bind(2*i+1, room, "temp", "temp")
		// Motion is open-loop: a pump seeded from the world's stream. The
		// thermostat walk reads what actuation writes, so it stays a
		// world generator and the office has no materialized workload.
		h.Install(workload.Toggler{Seed: h.World.RNG().Uint64(), Obj: room, Attr: "motion",
			MeanHigh: cfg.MeanOccupied, MeanLow: cfg.MeanEmpty})
		world.RandomWalk{Obj: room, Attr: "temp", Step: 1, Min: 20, Max: 36,
			MeanGap: cfg.MeanTempStep}.Install(h.World, cfg.Horizon)
	}

	if cfg.Actuate {
		reset := func(core.Occurrence) {
			of.Actuations++
			for _, room := range of.Rooms {
				if h.World.Get(room, "temp") > 28 {
					h.World.Set(room, "temp", 28)
				}
			}
		}
		if h.Checker != nil {
			h.Checker.Notify = reset
		}
		if h.ConjCk != nil {
			h.ConjCk.Notify = reset
		}
	}
	return of
}

// Run executes the scenario.
func (of *Office) Run() core.Results { return of.Harness.Run() }
