package core

import (
	"strconv"

	"pervasive/internal/clock"
	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/lattice"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/trace"
	"pervasive/internal/workload"
	"pervasive/internal/world"
)

// Binding maps a world-plane attribute onto a network-plane variable: the
// sensor at Proc monitors Object.Attr and exposes it as Var — the link
// between ⟨O,C⟩ and ⟨P,L⟩ of the system model.
type Binding struct {
	Proc   int
	Object int
	Attr   string
	Var    string
}

// HarnessConfig assembles one detection run.
type HarnessConfig struct {
	Seed uint64
	// N is the number of sensor processes; the checker P0 is an extra
	// transport node with index N.
	N     int
	Kind  ClockKind
	Delay sim.DelayModel
	// Topo defaults to a full mesh over N+1 nodes; Flood selects
	// hop-by-hop broadcast over it.
	Topo  network.Topology
	Flood bool
	// Pred is the global predicate over (proc, var) sensor variables.
	Pred predicate.Cond
	// Modality selects the checker: Instantaneously uses the strobe or
	// physical checker per Kind; Possibly/Definitely use the conjunctive
	// interval checker (Kind must be VectorStrobe).
	Modality predicate.Modality
	// LocalConj (conjunctive modes) is each sensor's local conjunct; nil
	// derives it from Pred via predicate.AsConjunctive.
	LocalConj predicate.Cond
	// Epsilon is the physical clock synchronization quality (each reading
	// within ±Epsilon/2 of true time); PhysicalReport mode only.
	Epsilon sim.Duration
	// Slack is the physical checker's reordering buffer; defaults to the
	// delay bound plus Epsilon.
	Slack     sim.Duration
	Horizon   sim.Time
	Trace     *trace.Trace
	LogStamps bool
	// Obs, if non-nil, receives runtime metrics from the engine, the
	// transport and the active checker; its time source is set to the
	// engine's virtual clock. Nil (the default) disables instrumentation
	// at zero cost.
	Obs *obs.Registry
	// Faults, if non-nil and non-empty, is the deterministic fault plan:
	// crashes/recoveries of sensor processes (not the checker P0),
	// partitions, and duplicate/reorder windows. See package faults.
	Faults *faults.Plan
	// Flight, if non-nil, is the causal flight recorder (built with
	// flight.New over N+1 processes — the DES is single-threaded). The
	// harness wires it into sensors, transport and checker, labels its
	// time base "virtual", and collects trigger-scoped dumps (each
	// embedding the Obs snapshot when Obs is set) into Harness.Dumps.
	// Nil (the default) keeps recording off the hot path entirely.
	Flight *flight.Recorder
}

// Harness owns one wired simulation.
type Harness struct {
	Cfg      HarnessConfig
	Eng      *sim.Engine
	World    *world.World
	Net      *network.Net
	Sensors  []*Sensor
	Bindings []Binding

	// Exactly one of the three checkers is non-nil, chosen by Modality and
	// Kind; det is that one, as the spine sees it.
	StrobeCk *StrobeChecker
	PhysCk   *PhysicalChecker
	ConjCk   *ConjunctiveChecker
	det      Detector

	// Faults is the compiled fault injector; nil when no plan is installed.
	Faults *faults.Injector

	// Dumps collects the flight dumps triggered during the run (fault
	// transitions, checker detections, SignalDump), in trigger order.
	Dumps []*flight.Dump
}

// Results of a harness run.
type Results struct {
	Occurrences []Occurrence
	Markers     []sim.Time
	Truth       []world.Interval
	Confusion   stats.Confusion
	Net         network.Stats
	Horizon     sim.Time
}

// NewHarness wires engine, world plane, transport, sensor fleet and
// checker. Callers then create world objects, call Bind for each sensed
// attribute, Install the workload, and Run.
func NewHarness(cfg HarnessConfig) *Harness {
	if cfg.N <= 0 {
		panic("core: harness needs at least one sensor")
	}
	if cfg.Delay == nil {
		cfg.Delay = sim.Synchronous{}
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 10 * sim.Second
	}
	if cfg.Topo == nil {
		cfg.Topo = network.FullMesh{Nodes: cfg.N + 1}
	}
	if cfg.Slack <= 0 {
		cfg.Slack = finiteBound(cfg.Delay) + cfg.Epsilon
	}

	eng := sim.NewEngine(cfg.Seed)
	w := world.New(eng)
	nt := network.New(eng, cfg.Topo, cfg.Delay)
	nt.Flood = cfg.Flood
	if cfg.Obs != nil {
		cfg.Obs.SetNow("virtual", eng.Now)
		obs.CollectEngine(cfg.Obs, eng)
		nt.SetObs(cfg.Obs)
	}

	h := &Harness{Cfg: cfg, Eng: eng, World: w, Net: nt}

	if cfg.Flight != nil {
		cfg.Flight.SetTimeBase("virtual")
		cfg.Flight.SetTrigger(func(d *flight.Dump) {
			if cfg.Obs != nil {
				snap := cfg.Obs.Snapshot()
				d.Metrics = &snap
			}
			h.Dumps = append(h.Dumps, d)
		})
		nt.SetFlight(cfg.Flight)
	}

	scfg := SensorConfig{
		N: cfg.N, Kind: cfg.Kind, CheckerIdx: cfg.N,
		Trace: cfg.Trace, LogStamps: cfg.LogStamps,
		Flight: cfg.Flight,
	}
	if cfg.Kind == PhysicalReport {
		scfg.Phys = clock.NewEpsilonFleet(eng.RNG().Fork(), cfg.N, cfg.Epsilon)
	}

	switch cfg.Modality {
	case predicate.Instantaneously:
		if cfg.Pred == nil {
			panic("core: Instantaneously modality needs Pred")
		}
		if cfg.Kind == PhysicalReport {
			h.PhysCk = NewPhysicalChecker(eng, cfg.N, cfg.Pred, cfg.Slack)
			h.PhysCk.SetObs(cfg.Obs)
			h.PhysCk.Register(nt, cfg.N)
			h.det = h.PhysCk
		} else {
			// Race-aware for the vector protocols; scalars cannot see races.
			h.StrobeCk = newStrobeChecker(cfg.N, cfg.Pred, cfg.Kind != ScalarStrobe)
			h.StrobeCk.SetObs(cfg.Obs)
			h.StrobeCk.SetFlight(cfg.Flight, cfg.N)
			h.StrobeCk.Register(nt, cfg.N)
			h.det = h.StrobeCk
		}
	case predicate.Possibly, predicate.Definitely:
		if cfg.Kind != VectorStrobe {
			panic("core: conjunctive modalities require strobe vector clocks")
		}
		local := cfg.LocalConj
		if local == nil {
			cjs, ok := predicate.AsConjunctive(cfg.Pred)
			if !ok || len(cjs) == 0 {
				panic("core: predicate is not conjunctive and no LocalConj given")
			}
			local = cjs[0].Cond
		}
		scfg.LocalConj = local
		h.ConjCk = NewConjunctiveChecker(cfg.N, cfg.Modality)
		h.ConjCk.SetObs(cfg.Obs)
		h.ConjCk.Register(nt, cfg.N)
		h.det = h.ConjCk
	}

	h.Sensors = NewSensors(nt, scfg, func(int) Transport { return nt })
	h.InstallFaults(cfg.Faults)
	return h
}

// InstallFaults compiles and installs a fault plan on the wired harness
// (see ScheduleFaults for what it gates, schedules and records). Call before
// Run: transition times must not be in the engine's past. A nil or empty
// plan is a no-op and leaves the fault-free fast path untouched.
func (h *Harness) InstallFaults(plan *faults.Plan) {
	at := func(_ int, t sim.Time, fn sim.Handler) { h.Eng.At(t, fn) }
	if inj := ScheduleFaults(plan, h.Sensors, h.Net.SetFaults, at, h.Cfg.Obs, h.Cfg.Flight); inj != nil {
		h.Faults = inj
	}
}

// SignalDump triggers an explicit flight dump of every process's ring,
// tagged "signal:<reason>" — the manual third trigger class next to
// fault transitions and checker detections.
func (h *Harness) SignalDump(reason string) {
	if h.Cfg.Flight == nil {
		return
	}
	h.Cfg.Flight.TriggerDump("signal:"+reason, h.Eng.Now())
}

// Install pumps the sources' merged stream, materialized to the horizon,
// into the world as one chained pump (see workload.Install).
func (h *Harness) Install(srcs ...workload.Source) {
	workload.Install(h.Eng, h.World, workload.Combine(srcs...).Events(h.Cfg.Horizon))
}

// Bind connects object obj's attr to variable varName at sensor proc.
func (h *Harness) Bind(proc, obj int, attr, varName string) {
	h.Sensors[proc].Bind(h.World, obj, attr, varName)
	h.Bindings = append(h.Bindings, Binding{Proc: proc, Object: obj, Attr: attr, Var: varName})
}

// truthKeys is the classic stack's truth adapter: the variables each world
// attribute backs, read off the bindings. One attribute bound at several
// sensors backs every one of those variables; a variable bound twice reads
// its last binding.
func (h *Harness) truthKeys() world.KeysOf {
	last := make(map[predicate.Key]world.AttrKey, len(h.Bindings))
	for _, b := range h.Bindings {
		last[predicate.Key{Proc: b.Proc, Name: b.Var}] = world.AttrKey{Object: b.Object, Attr: b.Attr}
	}
	byAttr := make(map[world.AttrKey][]predicate.Key, len(h.Bindings))
	for _, b := range h.Bindings {
		k, a := predicate.Key{Proc: b.Proc, Name: b.Var}, world.AttrKey{Object: b.Object, Attr: b.Attr}
		if last[k] == a {
			byAttr[a] = append(byAttr[a], k)
		}
	}
	return func(dst []predicate.Key, obj int, attr string) []predicate.Key {
		return append(dst, byAttr[world.AttrKey{Object: obj, Attr: attr}]...)
	}
}

// Tol is the scoring tolerance: the delay bound (100 ms when unbounded)
// plus Epsilon plus 1 ms.
func (h *Harness) Tol() sim.Duration {
	return finiteBound(h.Cfg.Delay) + h.Cfg.Epsilon + sim.Millisecond
}

// Run executes the simulation to the horizon, finishes the checker, and
// scores against ground truth.
func (h *Harness) Run() Results {
	horizon := h.Cfg.Horizon
	sp := h.Cfg.Obs.StartSpanAt("harness.run", h.Eng.Now())
	h.Eng.Run(horizon)
	// Let in-flight control traffic settle (bounded models only).
	for _, s := range h.Sensors {
		s.FlushConjunct(horizon)
	}
	h.Eng.RunAll()
	sp.EndAt(h.Eng.Now())

	res := Results{Net: h.Net.Stats, Horizon: horizon}
	truth := world.Oracle{Pred: h.Cfg.Pred, N: h.Cfg.N, KeysOf: h.truthKeys(), Obs: h.Cfg.Obs}
	FinishAndScore(&res, h.det, h.World.Log(), truth, h.Tol())
	return res
}

// clipToHorizon drops occurrences that begin after the horizon (an
// artifact of draining in-flight traffic) and clamps trailing ends, so
// detections and ground truth cover the same span.
func clipToHorizon(occ []Occurrence, horizon sim.Time) []Occurrence {
	out := occ[:0]
	for _, o := range occ {
		if o.Start >= horizon {
			continue
		}
		if o.End > horizon || o.End == 0 {
			o.End = horizon
		}
		out = append(out, o)
	}
	return out
}

// LatticeExecution assembles the stamped-event execution for lattice
// analysis (requires LogStamps).
func (h *Harness) LatticeExecution() *lattice.Execution {
	ex := &lattice.Execution{
		Stamps: make([][]clock.Vector, len(h.Sensors)),
		Times:  make([][]sim.Time, len(h.Sensors)),
	}
	for i, s := range h.Sensors {
		ex.Stamps[i], ex.Times[i] = s.StampLog()
	}
	return ex
}

// ConjunctiveGlobal builds the global predicate ∧ᵢ local(i) over n
// sensors from a single-process local conjunct template (its process
// index is remapped to each sensor). Useful for conjunctive scenarios
// where the same rule runs at every sensor.
func ConjunctiveGlobal(local predicate.Cond, n int) predicate.Cond {
	keys := predicate.VarsOf(local)
	var out predicate.Cond
	for i := 0; i < n; i++ {
		i := i
		part := predicate.FuncCond{
			F: func(s predicate.State) bool {
				return local.Holds(remap{inner: s, to: i})
			},
			Keys: remapKeys(keys, i),
			Desc: "local@" + strconv.Itoa(i),
		}
		if out == nil {
			out = part
		} else {
			out = predicate.And{L: out, R: part}
		}
	}
	return out
}

type remap struct {
	inner predicate.State
	to    int
}

// Get implements predicate.State.
func (r remap) Get(_ int, name string) float64 { return r.inner.Get(r.to, name) }

// NumProcs implements predicate.State.
func (r remap) NumProcs() int { return r.inner.NumProcs() }

func remapKeys(keys []predicate.Key, to int) []predicate.Key {
	out := make([]predicate.Key, len(keys))
	for i, k := range keys {
		out[i] = predicate.Key{Proc: to, Name: k.Name}
	}
	return out
}
