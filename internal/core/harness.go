package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pervasive/internal/checker"
	"pervasive/internal/clock"
	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/lattice"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
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

// HarnessConfig assembles one detection run: sensors P1…Pn, the checker P0
// at transport index N, a world plane and a network plane. Without a
// Workload the caller creates, Binds and Installs the world plane, and the
// run goes over network.Net on one engine. With one the run is a fleet:
// sensor i senses object i's "p" as variable "p", each shard hosts its
// sensors' objects in a world of its own, and the run goes over
// network.ShardedNet on Shards lockstep engines.
type HarnessConfig struct {
	Seed uint64
	// N is the number of sensor processes; the checker P0 is an extra
	// transport node with index N.
	N     int
	Kind  ClockKind
	Delay sim.DelayModel
	// Topo defaults to a full mesh over N+1 nodes, for a fleet to a
	// near-square grid over the sensors (a strobe reaches its neighbours and
	// the checker). Flood selects hop-by-hop broadcast over it.
	Topo  network.Topology
	Flood bool
	// Pred is the global predicate over (proc, var) sensor variables. A
	// fleet logs ground truth only for the processes Pred reads (all of
	// them when it aggregates): a pilot predicate keeps scoring O(pilot).
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
	Slack   sim.Duration
	Horizon sim.Time
	// Record keeps every sense event with its stamps, for RunRecord and
	// LatticeExecution.
	Record bool
	// Obs, if non-nil, receives runtime metrics from the engine, the
	// transport and the active checker; its time source is set to the
	// kernel's virtual clock. Nil (the default) disables instrumentation
	// at zero cost.
	Obs *obs.Registry
	// Faults, if non-nil and non-empty, is the deterministic fault plan:
	// crashes/recoveries of sensor processes (not the checker P0),
	// partitions, and duplicate/reorder windows. See package faults.
	Faults *faults.Plan
	// Flight, if non-nil, is the causal flight recorder (built with
	// flight.New over N+1 processes; it is single-writer). The
	// harness wires it into sensors, transport and checker, labels its
	// time base "virtual", and collects trigger-scoped dumps (each
	// embedding the Obs snapshot when Obs is set) into Harness.Dumps.
	// Nil (the default) keeps recording off the hot path entirely.
	Flight *flight.Recorder
	// Workload, if non-nil, is a fleet's workload over global sensor
	// indices, materialized once; every shard's pump reads that one stream
	// in place, so the run is shard- and worker-count invariant.
	Workload workload.Source
	// Shards (default 1, at most N) partitions a fleet contiguously; the
	// checker sits on the last. Above 1 Delay's minimum bound is the
	// lookahead. Workers > 1 spreads each epoch's shards over a crew of up
	// to Workers goroutines (bounded by the shards and GOMAXPROCS), started
	// once per run; a wall-clock knob only.
	Shards, Workers int
	// CheckerFanout is R, the number of regional aggregators of the
	// checker tree (internal/checker) that runs strobe-clock detection; 0
	// or 1 is one region. Detection output is the same at every fan-out.
	CheckerFanout int

	// raceAware, set only by in-package tests, keeps a fleet checker's
	// per-sender vector reconstructions, O(N) memory each.
	raceAware bool
}

// Harness owns one wired simulation.
type Harness struct {
	Cfg HarnessConfig
	// Sh is the kernel and Eng its engine 0. World is engine 0's world,
	// the whole world plane unless a fleet has one per shard in Worlds.
	Sh     *sim.Shards
	Eng    *sim.Engine
	World  *world.World
	Worlds []*world.World
	// The transport: Net, or Sharded for a fleet.
	Net      *network.Net
	Sharded  *network.ShardedNet
	Sensors  []*Sensor
	Bindings []Binding

	// Exactly one of PhysCk, ConjCk and Tree is non-nil, chosen by
	// Modality and Kind; det is that one, as the spine sees it. Tree runs
	// every strobe-clock detection.
	PhysCk *PhysicalChecker
	ConjCk *ConjunctiveChecker
	Tree   *checker.Tree
	det    Detector
	// Checker is always nil: strobe detection runs on Tree. It remains
	// only because cmd/bench still names it, and goes with the bench's
	// rewrite (ROADMAP item 1).
	Checker *StrobeChecker

	// Faults is the compiled fault injector; nil when no plan is installed.
	Faults *faults.Injector

	// Dumps collects the flight dumps triggered during the run (fault
	// transitions, checker detections, SignalDump), in trigger order.
	Dumps []*flight.Dump

	// Events is a fleet's materialized workload, in canonical order — the
	// stream a recorder captures, available before Run for encoding.
	Events []workload.Event

	objBase []int // a fleet's first sensor on each shard, -1 for none
	logged  int   // a fleet logs the objects of the processes below it
}

// Results of a harness run.
type Results struct {
	Occurrences []Occurrence
	Markers     []sim.Time
	Truth       []world.Interval
	Confusion   stats.Confusion
	Net         network.Stats
	Horizon     sim.Time
	// ClockBytes is the fleet's summed resident clock-state footprint at
	// the end of the run (peak for monotonically-growing sparse state).
	ClockBytes int64
	// Epochs and CrossSent are the kernel's barrier rounds and cross-shard
	// deliveries, 0 on one shard.
	Epochs, CrossSent uint64
}

// ShardedResults is Results under the name cmd/bench uses; it goes with
// the bench's rewrite (ROADMAP item 1).
type ShardedResults = Results

// NewHarness wires kernel, world plane, transport, sensor fleet and
// checker, and panics, naming the field, on a combination neither
// transport runs. A fleet is then ready to Run; otherwise callers create
// world objects, Bind each sensed attribute, Install the workload, and
// Run. Construction — every random stream in it — is indexed by sensor,
// never by shard, so any shard count yields the same run.
func NewHarness(cfg HarnessConfig) *Harness {
	fleet := cfg.Workload != nil
	refuse(cfg, fleet)
	if cfg.Delay == nil {
		cfg.Delay = sim.Synchronous{}
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 10 * sim.Second
	}
	if cfg.Slack <= 0 {
		cfg.Slack = finiteBound(cfg.Delay) + cfg.Epsilon
	}
	if cfg.Topo == nil && fleet {
		cfg.Topo = gridFor(cfg.N)
	} else if cfg.Topo == nil {
		cfg.Topo = network.FullMesh{Nodes: cfg.N + 1}
	}
	cfg.Shards = min(max(cfg.Shards, 1), cfg.N)

	look := sim.MinDelayBound(cfg.Delay)
	sh := sim.NewShards(cfg.Shards, look, cfg.Seed)
	sh.SetWorkers(cfg.Workers)
	h := &Harness{Cfg: cfg, Sh: sh, Eng: sh.Engine(0)}
	cfg.Obs.SetNow("virtual", sh.Now)
	scfg := SensorConfig{N: cfg.N, Kind: cfg.Kind, CheckerIdx: cfg.N, Record: cfg.Record, Flight: cfg.Flight}
	var rx Receiver
	var setFaults func(*faults.Injector)
	if fleet {
		rx, setFaults = h.wireFleet(scfg)
	} else {
		rx, setFaults = h.wireNet(scfg)
	}

	switch {
	case cfg.Modality != predicate.Instantaneously:
		h.ConjCk = NewConjunctiveChecker(cfg.N, cfg.Modality)
		h.ConjCk.SetObs(cfg.Obs)
		h.ConjCk.Register(rx, cfg.N)
		h.det = h.ConjCk
	case cfg.Kind == PhysicalReport:
		h.PhysCk = NewPhysicalChecker(h.Eng, cfg.N, cfg.Pred, cfg.Slack)
		h.PhysCk.SetObs(cfg.Obs)
		h.PhysCk.Register(rx, cfg.N)
		h.det = h.PhysCk
	default:
		// Race-aware for the vector protocols, whose stamps can show races;
		// a fleet's checker is race-blind (see raceAware).
		h.Tree = checker.New(checker.Config{
			N: cfg.N, Pred: cfg.Pred, Fanout: cfg.CheckerFanout,
			RaceAware:     cfg.Kind != ScalarStrobe && (!fleet || cfg.raceAware),
			BatchInterval: look,
		})
		h.Tree.SetObs(cfg.Obs)
		h.Tree.SetFlight(cfg.Flight, cfg.N)
		RegisterTree(rx, cfg.N, h.Tree)
		h.det = h.Tree
	}

	smap := network.ShardMap{Procs: cfg.N + 1, Shards: cfg.Shards}
	at := func(i int, t sim.Time, fn sim.Handler) { sh.Engine(smap.Of(i)).At(t, fn) }
	h.Faults = ScheduleFaults(cfg.Faults, h.Sensors, setFaults, at, cfg.Obs, cfg.Flight)
	return h
}

// refuse panics, naming the field, on a configuration the harness cannot
// run. network.Net runs on one engine; ShardedNet does not flood, is not
// wired to the single-writer flight recorder nor to the conjunctive
// checker's interval traffic, and its fleet runs the differential
// protocol. A zero-lookahead Delay over
// several shards is sim.NewShards' to refuse.
func refuse(cfg HarnessConfig, fleet bool) {
	var why string
	switch {
	case cfg.N <= 0:
		why = "harness needs at least one sensor"
	case !fleet && cfg.Shards > 1:
		why = "Shards > 1 needs a fleet Workload: network.Net runs on one engine"
	case fleet && cfg.Flood:
		why = "Flood with a fleet Workload: network.ShardedNet does not flood"
	case fleet && cfg.Flight != nil:
		why = "Flight with a fleet Workload: the flight recorder is single-writer"
	case fleet && cfg.Modality != predicate.Instantaneously:
		why = "Modality " + cfg.Modality.String() + " with a fleet Workload: the conjunctive checker runs on network.Net"
	case fleet && cfg.Kind != DiffVectorStrobe:
		why = "Kind " + cfg.Kind.String() + " with a fleet Workload: a fleet runs DiffVectorStrobe"
	case cfg.Modality == predicate.Instantaneously && cfg.Pred == nil:
		why = "Instantaneously modality needs Pred"
	case cfg.Modality != predicate.Instantaneously && cfg.Kind != VectorStrobe:
		why = "conjunctive modalities require strobe vector clocks"
	}
	if why != "" {
		panic("core: " + why)
	}
}

// wireNet builds a run on network.Net: one world on engine 0, the
// transport, the ε-synchronized clocks, the conjunct and the sensors, in
// the order of the engine-RNG forks every classic table is pinned to.
func (h *Harness) wireNet(scfg SensorConfig) (Receiver, func(*faults.Injector)) {
	cfg, eng := h.Cfg, h.Eng
	h.World = world.New(eng)
	h.Worlds = []*world.World{h.World}
	nt := network.New(eng, cfg.Topo, cfg.Delay)
	nt.Flood = cfg.Flood
	h.Net = nt
	if cfg.Obs != nil {
		obs.CollectEngine(cfg.Obs, eng)
		nt.SetObs(cfg.Obs)
	}
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
	if cfg.Kind == PhysicalReport {
		scfg.Phys = clock.NewEpsilonFleet(eng.RNG().Fork(), cfg.N, cfg.Epsilon)
	}
	if cfg.Modality != predicate.Instantaneously {
		scfg.LocalConj = cfg.LocalConj
		if scfg.LocalConj == nil {
			cjs, ok := predicate.AsConjunctive(cfg.Pred)
			if !ok || len(cjs) == 0 {
				panic("core: predicate is not conjunctive and no LocalConj given")
			}
			scfg.LocalConj = cjs[0]
		}
	}
	h.Sensors = NewSensors(nt, scfg, func(int) Transport { return nt })
	return nt, nt.SetFaults
}

// wireFleet builds a fleet on ShardedNet: one world per shard hosting its
// sensors' objects, each sensor's object the sensor's offset from the
// shard's first sensor, and the workload's pumps.
func (h *Harness) wireFleet(scfg SensorConfig) (Receiver, func(*faults.Injector)) {
	cfg, sh := h.Cfg, h.Sh
	smap := network.ShardMap{Procs: cfg.N + 1, Shards: cfg.Shards}
	snet := network.NewSharded(sh, cfg.Topo, cfg.Delay, smap, workload.DeriveSeed(cfg.Seed, 0x1))
	snet.NeighborScope = true
	snet.AlwaysReach = []int{cfg.N}
	snet.SetObs(cfg.Obs)
	obs.CollectShards(cfg.Obs, sh)
	h.Sharded = snet

	h.Worlds = make([]*world.World, cfg.Shards)
	h.objBase = make([]int, cfg.Shards)
	for k := range h.Worlds {
		h.Worlds[k] = world.New(sh.Engine(k))
		h.objBase[k] = -1
	}
	h.World = h.Worlds[0]
	h.Sensors = NewSensors(snet, scfg, func(i int) Transport { return snet.Part(smap.Of(i)) })
	for i := range h.Sensors {
		k := smap.Of(i)
		if h.objBase[k] < 0 {
			h.objBase[k] = i
		}
		h.Worlds[k].AddObject("", nil)
	}

	h.Events = cfg.Workload.Events(cfg.Horizon)
	for _, ev := range h.Events {
		if ev.Obj < 0 || ev.Obj >= cfg.N {
			panic(fmt.Sprintf("core: workload event targets object %d; fleet objects are 0..%d",
				ev.Obj, cfg.N-1))
		}
	}
	cfg.Pred.CollectVars(func(k predicate.Key) {
		if k.Proc < 0 || k.Proc >= cfg.N { // an aggregate reads every process
			h.logged = cfg.N
		} else {
			h.logged = max(h.logged, k.Proc+1)
		}
	})
	// Each shard's world hosts the sensors [base, end). One listener per
	// world does the binding for every object it hosts, where a Bind per
	// sensor would cost a closure and a listener slice each. The shard's
	// pump reads h.Events in place and fires the events of the sensors it
	// hosts as local objects; the world logs those of them below logged.
	for k, w := range h.Worlds {
		base, end := h.objBase[k], cfg.N
		if base < 0 {
			continue // the checker's shard alone: no objects
		}
		if k+1 < len(h.objBase) && h.objBase[k+1] >= 0 {
			end = h.objBase[k+1]
		}
		hosted := h.Sensors[base:end]
		w.SubscribeAll(func(ev world.Event) {
			if ev.Attr == "p" {
				hosted[ev.Object].Sense(ev.At, "p", ev.New)
			}
		})
		w.LogBelow(h.logged - base)
		workload.InstallRange(sh.Engine(k), w, h.Events, base, end)
	}
	return snet, snet.SetFaults
}

// PilotPred builds the scored predicate p@0 + … + p@(m-1) >= k: at least k
// of a fleet's m leading sensors are high.
func PilotPred(m, k int) predicate.Cond {
	terms := make([]string, m)
	for i := range terms {
		terms[i] = "p@" + strconv.Itoa(i)
	}
	return predicate.MustParse(strings.Join(terms, " + ") + " >= " + strconv.Itoa(k))
}

// gridFor lays N sensors on a near-square grid (row-major, matching the
// contiguous shard map: a shard owns a band of rows).
func gridFor(n int) network.Topology {
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	if rows*cols != n {
		// Grid needs an exact fill; fall back to a ring for awkward sizes.
		return network.Ring{Nodes: n}
	}
	return network.Grid{Rows: rows, Cols: cols}
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
// into the world as one chained pump (see workload.Install). A fleet's
// workload is its config's.
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

// Run executes the simulation to the horizon, lets in-flight control
// traffic settle (bounded models only), finishes the checker, and scores
// against ground truth. After a drain through Sh.Run and Sh.RunAll it only
// finishes and scores.
func (h *Harness) Run() Results {
	horizon := h.Cfg.Horizon
	sp := h.Cfg.Obs.StartSpanAt("harness.run", h.Sh.Now())
	h.Sh.Run(horizon)
	for _, s := range h.Sensors {
		s.FlushConjunct(horizon)
	}
	h.Sh.RunAll()
	sp.EndAt(h.Sh.Now())

	res := Results{Net: h.netStats(), Horizon: horizon, Epochs: h.Sh.Epochs, CrossSent: h.Sh.CrossSent}
	truth := world.Oracle{Pred: h.Cfg.Pred, N: h.Cfg.N, Obs: h.Cfg.Obs}
	var log []world.Event
	if h.Net != nil {
		truth.KeysOf, log = h.truthKeys(), h.World.Log()
	} else {
		// a fleet's binding is identity: sensor i senses object i's "p" as variable "p"
		truth.KeysOf, log = world.IdentityKeys, h.mergedLog()
	}
	FinishAndScore(&res, h.det, log, truth, h.Tol())
	for _, s := range h.Sensors {
		res.ClockBytes += int64(s.ClockStateBytes())
	}
	return res
}

// netStats sums the transport's counters.
func (h *Harness) netStats() network.Stats {
	if h.Net != nil {
		return h.Net.Stats
	}
	return h.Sharded.TotalStats()
}

// mergedLog merges a fleet's per-shard ground-truth logs into one global
// log, remapping per-world object ids to global sensor indices. Shard logs
// are concatenated in shard order and stably sorted by (time, global
// object): within a key each event set comes from a single shard in its
// execution order, so the merge is shard-count invariant — Seq included,
// renumbered to the position in the merged log (a world's own positions
// say nothing across shards). The filter stays although every world
// already bounds its log: the bound is memory, this is what gets scored.
func (h *Harness) mergedLog() []world.Event {
	size := 0
	for _, w := range h.Worlds {
		size += len(w.Log())
	}
	out := make([]world.Event, 0, size)
	for k, w := range h.Worlds {
		base := h.objBase[k]
		for _, ev := range w.Log() {
			g := base + ev.Object
			if g >= h.logged {
				continue
			}
			ev.Object = g
			out = append(out, ev)
		}
	}
	slices.SortStableFunc(out, func(a, b world.Event) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Object, b.Object))
	})
	for i := range out {
		out[i].Seq = i
	}
	return out
}

// CounterLines returns the run's shard-count-invariant counters as sorted
// "name=value" lines — the differential oracle's observable surface.
func (h *Harness) CounterLines() []string {
	t := h.netStats()
	lines := []string{
		"net.sent=" + strconv.FormatInt(t.Sent, 10),
		"net.delivered=" + strconv.FormatInt(t.Delivered, 10),
		"net.dropped=" + strconv.FormatInt(t.Dropped, 10),
		"net.bytes=" + strconv.FormatInt(t.Bytes, 10),
		"sim.executed=" + strconv.FormatUint(h.Sh.ExecutedTotal(), 10),
	}
	if h.Tree != nil { // the strobe checker counts what it applies
		lines = append(lines, "checker.applied="+strconv.FormatInt(h.Tree.Stat.Applied, 10),
			"checker.stale="+strconv.FormatInt(h.Tree.Stat.Stale, 10))
	}
	for kind, v := range t.ByKind {
		lines = append(lines, "net.kind."+kind+"="+strconv.FormatInt(v, 10))
	}
	h.Faults.EachCount(func(name string, v int64) {
		lines = append(lines, name+"="+strconv.FormatInt(v, 10))
	})
	sort.Strings(lines)
	return lines
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

// RunRecord is the run record of a harness built with Record: every
// sensor's sense events as one flight.Dump (trigger flight.RunTrigger,
// time base "virtual"), taken at the kernel's current time. Nil without
// Record.
func (h *Harness) RunRecord() *flight.Dump {
	return runRecord(h.Sensors, h.Sh.Now())
}

// LatticeExecution is the run record's stamped-event execution for lattice
// analysis; nil unless the harness records a vector clock kind.
func (h *Harness) LatticeExecution() *lattice.Execution {
	return h.RunRecord().Execution()
}

// runRecord merges the sensors' recorded sense events into one run record,
// stably sorted by (time, process): each sensor's events are in its own
// program order and each sensor is one process, so the merge is the same
// however the sensors were scheduled. Nil when the fleet records nothing.
func runRecord(sensors []*Sensor, at sim.Time) *flight.Dump {
	if len(sensors) == 0 || sensors[0].c == nil || !sensors[0].c.record {
		return nil
	}
	d := &flight.Dump{
		Version: flight.DumpVersion, Trigger: flight.RunTrigger, At: at,
		TimeBase: "virtual", N: len(sensors), Procs: make([]int, len(sensors)),
	}
	total := 0
	for _, s := range sensors {
		total += len(s.c.senses)
	}
	d.Events = make([]flight.Event, 0, total)
	for i, s := range sensors {
		d.Procs[i] = i
		d.Events = append(d.Events, s.c.senses...)
	}
	slices.SortStableFunc(d.Events, func(a, b flight.Event) int { return cmp.Compare(a.At, b.At) })
	return d
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
