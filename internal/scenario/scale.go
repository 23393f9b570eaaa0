package scenario

import (
	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// ScaleConfig parameterizes the large-deployment scenario: a fleet of N
// motion sensors on a grid, partitioned over Shards lockstep engines
// (§2.2's "very large number of sensors" regime). The scored predicate is
// a pilot neighborhood — at least PilotK of the Pilot leading sensors
// active — so the detection problem stays local while the whole fleet
// carries strobe and clock traffic. It is the one scenario that passes
// the harness a fleet workload, so the only one on network.ShardedNet and
// the only one that may take more than one shard; the classic scenarios
// run network.Net on one engine of the same kernel.
type ScaleConfig struct {
	Seed   uint64
	N      int // fleet size (default 1024)
	Shards int
	// Workers selects how an epoch runs: 0/1 run the shards one after
	// another, any value > 1 runs every shard of the epoch on its own
	// goroutine — a switch, not a bound. Results are identical at any
	// setting.
	Workers int
	Delay   sim.DelayModel
	Horizon sim.Time
	Pilot   int
	PilotK  int
	// CheckerFanout >= 2 routes detection through the hierarchical
	// checker tree with that many regional aggregators; <= 1 keeps the
	// flat checker (the differential oracle).
	CheckerFanout int
	// Workload overrides the fleet workload (e.g. a replayed trace,
	// objects = global sensor indices); nil uses the default per-sensor
	// toggler fleet.
	Workload workload.Source
	Faults   *faults.Plan
	Obs      *obs.Registry
}

// Scale is a wired fleet scenario.
type Scale struct {
	Cfg     ScaleConfig
	Harness *core.Harness
}

// NewScale wires the scenario.
func NewScale(cfg ScaleConfig) *Scale {
	if cfg.N <= 0 {
		cfg.N = 1024
	}
	if cfg.Delay == nil {
		cfg.Delay = sim.NewDeltaBounded(5 * sim.Millisecond)
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 2 * sim.Second
	}
	if cfg.Pilot <= 0 || cfg.Pilot > cfg.N {
		cfg.Pilot = min(8, cfg.N)
	}
	if cfg.PilotK <= 0 {
		cfg.PilotK = cfg.Pilot/2 + 1
	}
	if cfg.Workload == nil {
		// One toggler per sensor, one workload-root fork each in sensor
		// order; long-high dwells keep the pilot majority reachable.
		cfg.Workload = workload.TogglerFleet{
			Seed: workload.DeriveSeed(cfg.Seed, 0x2), N: cfg.N, Attr: "p",
			MeanHigh: 1200 * sim.Millisecond, MeanLow: 400 * sim.Millisecond,
		}
	}
	h := core.NewHarness(core.HarnessConfig{
		Seed: cfg.Seed, N: cfg.N, Kind: core.DiffVectorStrobe,
		Shards: cfg.Shards, Workers: cfg.Workers,
		Delay: cfg.Delay, Horizon: cfg.Horizon,
		Pred:          core.PilotPred(cfg.Pilot, cfg.PilotK),
		CheckerFanout: cfg.CheckerFanout, Workload: cfg.Workload,
		Faults: cfg.Faults, Obs: cfg.Obs,
	})
	return &Scale{Cfg: cfg, Harness: h}
}

// Run executes the scenario.
func (s *Scale) Run() core.Results { return s.Harness.Run() }
