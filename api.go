package pervasive

import (
	"pervasive/internal/advisor"
	"pervasive/internal/clock"
	"pervasive/internal/clocksync"
	"pervasive/internal/core"
	"pervasive/internal/experiments"
	"pervasive/internal/lattice"
	"pervasive/internal/live"
	"pervasive/internal/mac"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/scenario"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/timing"
	"pervasive/internal/tl"
	"pervasive/internal/world"
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

// Synchronous returns the ideal Δ=0 delay model.
func Synchronous() DelayModel { return sim.Synchronous{} }

// DeltaBounded returns the asynchronous Δ-bounded model with delays
// uniform in [Δ/10, Δ].
func DeltaBounded(delta Duration) DelayModel { return sim.NewDeltaBounded(delta) }

// UnboundedDelay returns the asynchronous unbounded (exponential) model.
func UnboundedDelay(mean Duration) DelayModel { return sim.Unbounded{Mean: mean} }

// WithLoss wraps a delay model with i.i.d. message loss probability p.
func WithLoss(inner DelayModel, p float64) DelayModel {
	return sim.WithLoss{Inner: inner, P: p}
}

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

// ParsePredicate compiles the expression language, e.g.
// "sum(x) - sum(y) > 200" or "temp@1 > 30 && motion@0 == 1".
func ParsePredicate(src string) (Cond, error) { return predicate.Parse(src) }

// MustParsePredicate is ParsePredicate that panics on error.
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

// Harness wires world plane, network plane, sensor fleet and checker.
type (
	Harness       = core.Harness
	HarnessConfig = core.HarnessConfig
	Results       = core.Results
	Occurrence    = core.Occurrence
	Confusion     = stats.Confusion
	Interval      = world.Interval
	World         = world.World
)

// NewHarness builds a detection run; see core.HarnessConfig.
func NewHarness(cfg HarnessConfig) *Harness { return core.NewHarness(cfg) }

// ConjunctiveGlobal builds ∧ᵢ local(i) over n sensors from a local
// conjunct template.
func ConjunctiveGlobal(local Cond, n int) Cond { return core.ConjunctiveGlobal(local, n) }

// ---- world-plane generators ----

// Generators for world activity.
type (
	Toggler       = world.Toggler
	RandomWalk    = world.RandomWalk
	PoissonPulses = world.PoissonPulses
	CovertRule    = world.CovertRule
)

// TrueIntervals computes ground-truth predicate-true intervals of a world
// log under an arbitrary Go predicate, re-evaluating it after every batch of
// simultaneous events. Harness and live runs score their Predicate
// incrementally (world.Oracle) and are held to exactly these intervals.
func TrueIntervals(log []world.Event, pred world.StatePredicate, horizon Time) []Interval {
	return world.TrueIntervals(log, pred, horizon)
}

// ---- scenarios (Section 5) ----

// Scenario configurations and handles.
type (
	ExhibitionHallConfig = scenario.HallConfig
	ExhibitionHall       = scenario.Hall
	SmartOfficeConfig    = scenario.OfficeConfig
	SmartOffice          = scenario.Office
	HospitalConfig       = scenario.HospitalConfig
	Hospital             = scenario.Hospital
	HabitatConfig        = scenario.HabitatConfig
	Habitat              = scenario.Habitat
	ProximityConfig      = scenario.ProximityConfig
	Proximity            = scenario.Proximity
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

// NewProximity wires §5's visitor-approaches-patient proximity alarm with
// random-waypoint badge mobility.
func NewProximity(cfg ProximityConfig) *Proximity { return scenario.NewProximity(cfg) }

// ---- live engine ----

// Live engine types: every sensor is a goroutine, links are channels.
type (
	LiveConfig  = live.Config
	LiveNetwork = live.Network
	LiveResults = live.Results
)

// StartLive starts a goroutine-per-sensor network.
func StartLive(cfg LiveConfig) *LiveNetwork { return live.Start(cfg) }

// ---- clock synchronization (Section 3.2.1.a(ii)) ----

// Clock-synchronization simulation types.
type (
	SyncConfig = clocksync.Config
	SyncResult = clocksync.Result
)

// Synchronization protocol runners.
var (
	RunRBS      = clocksync.RBS
	RunTPSN     = clocksync.TPSN
	RunOnDemand = clocksync.OnDemand
	RunUnsynced = clocksync.Unsynced
)

// ---- lattice analysis (Section 4.2.4) ----

// LatticeExecution is a stamped execution for consistent-cut analysis.
type LatticeExecution = lattice.Execution

// ---- relative timing relations (Section 3.1.1.a.ii) ----

// Relative-timing specification types; see examples/securebank.
type (
	TimingSpec    = timing.Spec
	TimingMatcher = timing.Matcher
	TimingRel     = timing.Rel
)

// Relative timing relations.
const (
	XBeforeY   = timing.XBeforeY
	XOverlapsY = timing.XOverlapsY
	XDuringY   = timing.XDuringY
	XMeetsY    = timing.XMeetsY
)

// MultiChecker detects several named predicates over one strobe stream.
type MultiChecker = core.MultiChecker

// NewMultiChecker builds one strobe checker per named predicate.
func NewMultiChecker(n int, preds map[string]Cond, vector bool) *MultiChecker {
	return core.NewMultiChecker(n, preds, vector)
}

// ---- temporal logic (Section 3.1.1.a.iv) ----

// MTL monitoring types; formulas like "G(occupied -> F[0,5s] alarm)".
type (
	TLFormula = tl.Formula
	TLTrace   = tl.Trace
	TLSignal  = tl.Signal
	TLSpan    = tl.Span
)

// ParseTL compiles an MTL formula.
func ParseTL(src string) (TLFormula, error) { return tl.Parse(src) }

// MustParseTL is ParseTL that panics on error.
func MustParseTL(src string) TLFormula { return tl.MustParse(src) }

// NewTLTrace creates an empty proposition trace over [0, horizon).
func NewTLTrace(horizon Time) *TLTrace { return tl.NewTrace(horizon) }

// MonitorTL evaluates the formula at time 0 over the trace.
func MonitorTL(f TLFormula, tr *TLTrace) bool { return tl.Monitor(f, tr) }

// TLViolations returns the intervals where the formula fails.
func TLViolations(f TLFormula, tr *TLTrace) []TLSpan { return tl.Violations(f, tr) }

// DetectionSignal converts detector occurrences into a TL signal.
func DetectionSignal(occ []Occurrence, horizon Time) TLSignal {
	return core.SignalOf(occ, horizon)
}

// TruthSignal converts ground-truth intervals into a TL signal.
func TruthSignal(ivs []Interval, horizon Time) TLSignal {
	spans := make([]tl.Span, 0, len(ivs))
	for _, iv := range ivs {
		spans = append(spans, tl.Span{Lo: iv.Start, Hi: iv.End})
	}
	return tl.NewSignal(spans, horizon)
}

// Divergence is the fraction of time two detectors' views disagree.
func Divergence(a, b []Occurrence, horizon Time) float64 {
	return core.Divergence(a, b, horizon)
}

// ConsensusPolicy selects the §5 consensus treatment of partial agreement.
type ConsensusPolicy = core.ConsensusPolicy

// Consensus policies.
const (
	ConsensusMajority = core.ConsensusMajority
	ConsensusBin      = core.ConsensusBin
)

// ConsensusMerge merges replicated checkers' views by majority vote,
// flagging disagreement as borderline (§5's consensus-based algorithm).
func ConsensusMerge(replicas [][]Occurrence, horizon Time) []Occurrence {
	return core.ConsensusMerge(replicas, horizon)
}

// ConsensusMergePolicy is ConsensusMerge with an explicit policy.
func ConsensusMergePolicy(replicas [][]Occurrence, horizon Time, p ConsensusPolicy) []Occurrence {
	return core.ConsensusMergePolicy(replicas, horizon, p)
}

// ---- differential strobes and fine-grained relations ----

// DiffStrobeVector is a strobe vector clock with Singhal–Kshemkalyani
// differential broadcast.
type DiffStrobeVector = clock.DiffStrobeVector

// NewDiffStrobeVector returns process me's differential strobe clock.
func NewDiffStrobeVector(me, n int) *DiffStrobeVector {
	return clock.NewDiffStrobeVector(me, n)
}

// ---- duty-cycle MAC synchronization (Section 5) ----

// Duty-cycle simulation types.
type (
	DutyCycleConfig = mac.Config
	DutyCycleResult = mac.Result
)

// RunDutyCycle executes a duty-cycle timer-synchronization simulation.
func RunDutyCycle(cfg DutyCycleConfig) DutyCycleResult { return mac.Run(cfg) }

// ---- deployment advisor (§3.3, §6) ----

// Advisor types: executable form of the paper's decision guidance.
type (
	Deployment = advisor.Deployment
	Advice     = advisor.Advice
)

// Advise ranks the time-implementation options for a deployment using the
// criteria of Sections 3.3 and 6.
func Advise(d Deployment) Advice { return advisor.Advise(d) }

// ---- observability (runtime metrics & spans) ----

// Metrics is a registry of runtime counters, gauges, histograms and
// spans shared by both execution engines; MetricsSnapshot is a
// point-in-time export of one. A nil *Metrics disables every
// instrumented path at zero cost, so components hold resolved
// instruments rather than checking flags.
type (
	Metrics         = obs.Registry
	MetricsSnapshot = obs.Snapshot
)

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

// Experiments lists E1–E15 in order.
func Experiments() []Experiment { return experiments.All }

// Ablations lists the A-series design-choice ablations.
func Ablations() []Experiment { return experiments.Ablations }

// RunExperiment runs one experiment by ID ("E1" … "E12").
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentTable, bool) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, false
	}
	return e.Run(cfg), true
}
