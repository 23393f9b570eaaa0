package pervasive

import (
	"pervasive/internal/clock"
	"pervasive/internal/clocksync"
	"pervasive/internal/core"
	"pervasive/internal/experiments"
	"pervasive/internal/live"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/scenario"
	"pervasive/internal/sim"
	"pervasive/internal/timing"
	"pervasive/internal/workload"
)

// ---- time ----

// Time is a virtual timestamp in microseconds; Duration a span of it.
type (
	Time     = sim.Time
	Duration = sim.Duration
)

// Time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// ---- delay models (Section 3.2.2) ----

// DelayModel abstracts message transmission delay.
type DelayModel = sim.DelayModel

// DeltaBounded returns the asynchronous Δ-bounded model with delays
// uniform in [Δ/10, Δ].
func DeltaBounded(delta Duration) DelayModel { return sim.NewDeltaBounded(delta) }

// ---- predicates and modalities (Section 3.1) ----

// Cond is a global predicate over per-process sensed variables.
type Cond = predicate.Cond

// Modality is the time modality of a specification.
type Modality = predicate.Modality

// Modalities.
const (
	Instantaneously = predicate.Instantaneously
	Possibly        = predicate.Possibly
	Definitely      = predicate.Definitely
)

// MustParsePredicate compiles the expression language, e.g.
// "sum(x) - sum(y) > 200" or "temp@1 > 30 && motion@0 == 1", and panics
// on error.
func MustParsePredicate(src string) Cond { return predicate.MustParse(src) }

// ---- clocks (Sections 3.2, 4.2) ----

// Clock families.
type (
	// Lamport is a logical scalar clock (rules SC1–SC3).
	Lamport = clock.Lamport
	// VectorClock is a Mattern/Fidge causal vector clock (VC1–VC3).
	VectorClock = clock.VectorClock
	// StrobeScalar is a strobe scalar clock (SSC1–SSC2).
	StrobeScalar = clock.StrobeScalar
	// StrobeVector is a strobe vector clock (SVC1–SVC2).
	StrobeVector = clock.StrobeVector
	// VectorStamp is a vector timestamp.
	VectorStamp = clock.Vector
)

// NewVectorClock returns process me's causal vector clock among n.
func NewVectorClock(me, n int) *VectorClock { return clock.NewVectorClock(me, n) }

// NewStrobeVector returns process me's strobe vector clock among n.
func NewStrobeVector(me, n int) *StrobeVector { return clock.NewStrobeVector(me, n) }

// ClockKind selects the fleet's clock/protocol family.
type ClockKind = core.ClockKind

// Clock kinds.
const (
	VectorStrobe     = core.VectorStrobe
	ScalarStrobe     = core.ScalarStrobe
	PhysicalReport   = core.PhysicalReport
	DiffVectorStrobe = core.DiffVectorStrobe
)

// ---- detection harness ----

// Harness wires world plane, network plane, sensor fleet and checker on
// the discrete-event kernel: without HarnessConfig.Workload, on one engine
// with the world plane the caller binds; with a fleet workload, over
// HarnessConfig.Shards lockstep engines.
type (
	Harness       = core.Harness
	HarnessConfig = core.HarnessConfig
	Results       = core.Results
	Occurrence    = core.Occurrence
)

// NewHarness builds a detection run; see core.HarnessConfig.
func NewHarness(cfg HarnessConfig) *Harness { return core.NewHarness(cfg) }

// ---- world-plane activity ----

// Toggler is an open-loop workload Source: pass it to Harness.Install,
// seeded explicitly.
type Toggler = workload.Toggler

// ---- scenarios (Section 5) ----

// Scenario configurations and handles. The hall, hospital and habitat
// configurations share their run fields through ScenarioRun.
type (
	ScenarioRun          = scenario.Run
	ExhibitionHallConfig = scenario.HallConfig
	ExhibitionHall       = scenario.Hall
	SmartOfficeConfig    = scenario.OfficeConfig
	SmartOffice          = scenario.Office
	HospitalConfig       = scenario.HospitalConfig
	Hospital             = scenario.Hospital
	HabitatConfig        = scenario.HabitatConfig
	Habitat              = scenario.Habitat
)

// NewExhibitionHall wires the §5 convention-center occupancy monitor.
func NewExhibitionHall(cfg ExhibitionHallConfig) *ExhibitionHall { return scenario.NewHall(cfg) }

// NewSmartOffice wires the §3.1/§3.3 smart-office rule with optional
// thermostat actuation.
func NewSmartOffice(cfg SmartOfficeConfig) *SmartOffice { return scenario.NewOffice(cfg) }

// NewHospital wires the §5 hospital monitors.
func NewHospital(cfg HospitalConfig) *Hospital { return scenario.NewHospital(cfg) }

// NewHabitat wires an in-the-wild habitat monitor (the strobe clocks'
// favourable regime).
func NewHabitat(cfg HabitatConfig) *Habitat { return scenario.NewHabitat(cfg) }

// ---- live engine ----

// Live engine types: every sensor is a goroutine, links are channels.
// MetricsServer is the HTTP endpoint LiveNetwork.Metrics holds when
// LiveConfig.MetricsAddr is set; its Addr is where it listens.
type (
	LiveConfig    = live.Config
	LiveNetwork   = live.Network
	MetricsServer = obs.MetricsServer
)

// StartLive starts a goroutine-per-sensor network.
func StartLive(cfg LiveConfig) *LiveNetwork { return live.Start(cfg) }

// ---- clock synchronization (Section 3.2.1.a(ii)) ----

// Clock-synchronization simulation types.
type (
	SyncConfig = clocksync.Config
	SyncResult = clocksync.Result
)

// RunRBS simulates reference-broadcast synchronization.
var RunRBS = clocksync.RBS

// ---- relative timing relations (Section 3.1.1.a.ii) ----

// Relative-timing specification types; see examples/securebank.
type (
	TimingSpec = timing.Spec
	TimingRel  = timing.Rel
)

// Relative timing relations.
const (
	XBeforeY   = timing.XBeforeY
	XOverlapsY = timing.XOverlapsY
	XDuringY   = timing.XDuringY
	XMeetsY    = timing.XMeetsY
)

// ---- consensus over replicated checkers (Section 5) ----

// ConsensusMerge merges replicated checkers' views by majority vote,
// flagging disagreement as borderline (§5's consensus-based algorithm).
func ConsensusMerge(replicas [][]Occurrence, horizon Time) []Occurrence {
	return core.ConsensusMerge(replicas, horizon)
}

// ---- observability (runtime metrics & spans) ----

// Metrics is a registry of runtime counters, gauges, histograms and
// spans shared by both execution engines; its Snapshot is a
// point-in-time export. A nil *Metrics disables every
// instrumented path at zero cost, so components hold resolved
// instruments rather than checking flags.
type Metrics = obs.Registry

// NewMetrics returns an enabled metrics registry. Pass it via the Obs
// fields of HarnessConfig, the scenario configs, or LiveConfig; read it
// back with Snapshot (JSON via WriteJSON, human-readable via
// WriteTable). Spans record virtual time under the DES harness and
// wall-µs under the live engine; Snapshot.TimeBase says which.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// ---- experiments ----

// Experiment reproduces one of the paper's claims; Table is its result.
type (
	Experiment       = experiments.Experiment
	ExperimentTable  = experiments.Table
	ExperimentConfig = experiments.RunConfig
)

// Experiments lists E1–E16 in order.
func Experiments() []Experiment { return experiments.All }

// RunExperiment runs one experiment or ablation by ID ("E1" … "E16",
// "A1" … "A7").
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentTable, bool) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, false
	}
	return e.Run(cfg), true
}
