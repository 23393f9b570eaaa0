package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pervasive/internal/checker"
	"pervasive/internal/faults"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
	"pervasive/internal/world"
)

// ShardedConfig assembles one spatially-sharded detection run: N sensors
// on a radio topology, partitioned contiguously over Shards lockstep
// engines, with the checker P0 as transport index N on the last shard.
//
// The scored predicate covers only the Pilot leading sensors ("at least
// PilotK of the pilot motion sensors are high"), so predicate evaluation
// and ground truth stay O(Pilot) while the remaining fleet generates real
// sensing, strobe and clock load. That asymmetry is what the paper's
// deployment story needs at p ≥ 10⁴: the network-wide protocol machinery
// runs at full scale, the global predicate is local to a neighborhood.
type ShardedConfig struct {
	Seed   uint64
	N      int // sensor count; the checker is transport index N
	Shards int
	// Workers selects how an epoch executes: <= 1 runs the shards one after
	// another; any value > 1 runs every shard of the epoch on its own
	// goroutine (it is a switch, not a bound). Purely a wall-clock knob;
	// results are identical.
	Workers int
	// Delay must have a positive minimum bound (sim.MinDelayBound) when
	// Shards > 1; it becomes the conservative lookahead.
	Delay sim.DelayModel
	// Topo is the sensor radio topology over N nodes; nil defaults to a
	// near-square grid. Strobes reach topology neighbors plus the checker.
	Topo network.Topology
	// Pilot (default min(8, N)) and PilotK (default majority of Pilot)
	// define the scored predicate p@0 + … + p@(Pilot-1) >= PilotK.
	Pilot  int
	PilotK int
	// MeanHigh/MeanLow are the per-sensor toggler dwell times (defaults
	// 800ms / 1.5s).
	MeanHigh, MeanLow sim.Duration
	Horizon           sim.Time
	// CheckerFanout selects the detection architecture: <= 1 keeps the
	// flat StrobeChecker (the R=1 fast path and differential oracle);
	// >= 2 builds a checker tree of that many regional aggregators
	// (internal/checker) with batched upward sync. Detection output is
	// byte-identical either way; the tree bounds per-node state and
	// makes per-report work O(1) in the fleet size.
	CheckerFanout int
	// Workload overrides the fleet workload with any workload.Source
	// (objects are global sensor indices, attr "p"); nil uses the default
	// per-sensor toggler fleet parameterized by MeanHigh/MeanLow. The
	// source is materialized once and every shard's pump reads that one
	// stream in place, firing the events of the sensors it hosts, so the
	// stream — and therefore the whole run — is shard- and worker-count
	// invariant, and Harness.Events can be recorded to a trace.
	Workload workload.Source
	// Faults, if non-nil, is the deterministic fault plan; transitions are
	// scheduled on each target's own shard.
	Faults *faults.Plan
	Obs    *obs.Registry

	// Set only by the in-package differential tests, which hold every
	// (Shards, Workers, checker) combination to one run record: raceAware
	// keeps the checker's per-sender vector reconstructions (O(N) memory
	// per active sender), and record keeps each sensor's sense events for
	// runRecord (stamps are materialized densely, so test-sized runs only).
	raceAware, record bool
}

// ShardedHarness owns one wired sharded simulation.
type ShardedHarness struct {
	Cfg     ShardedConfig
	Sh      *sim.Shards
	Net     *network.ShardedNet
	Worlds  []*world.World // one per shard
	Sensors []*Sensor
	// Checker is the flat P0 (CheckerFanout <= 1); Tree the hierarchical
	// checker (CheckerFanout >= 2). Exactly one is non-nil; det is that
	// one, as the spine sees it.
	Checker *StrobeChecker
	Tree    *checker.Tree
	det     Detector
	Faults  *faults.Injector
	Pred    predicate.Cond
	// Events is the materialized fleet workload driving the run, in
	// canonical order with global sensor indices as objects — the stream
	// a recorder would capture, available before Run for encoding.
	Events []workload.Event

	objBase []int // first global sensor index hosted by each shard
}

// ShardedResults of a sharded run: the classic Results plus the fleet's
// clock footprint and the lockstep kernel's counters.
type ShardedResults struct {
	Results
	// ClockBytes is the fleet's summed resident clock-state footprint at
	// the end of the run (peak for monotonically-growing sparse state).
	ClockBytes int64
	Epochs     uint64
	CrossSent  uint64
}

// PilotPred builds the scored predicate p@0 + … + p@(m-1) >= k.
func PilotPred(m, k int) predicate.Cond {
	terms := make([]string, m)
	for i := range terms {
		terms[i] = "p@" + strconv.Itoa(i)
	}
	return predicate.MustParse(strings.Join(terms, " + ") + " >= " + strconv.Itoa(k))
}

// NewShardedHarness wires shards, worlds, transport, sensor fleet,
// workload and checker. The construction order — and every random stream
// in it — is indexed by sensor, never by shard, so any shard count yields
// the same run.
func NewShardedHarness(cfg ShardedConfig) *ShardedHarness {
	if cfg.N <= 0 {
		panic("core: sharded harness needs at least one sensor")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.N {
		cfg.Shards = cfg.N
	}
	if cfg.Delay == nil {
		cfg.Delay = sim.NewDeltaBounded(5 * sim.Millisecond)
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 4 * sim.Second
	}
	if cfg.MeanHigh <= 0 {
		cfg.MeanHigh = 800 * sim.Millisecond
	}
	if cfg.MeanLow <= 0 {
		cfg.MeanLow = 1500 * sim.Millisecond
	}
	if cfg.Pilot <= 0 || cfg.Pilot > cfg.N {
		cfg.Pilot = 8
		if cfg.Pilot > cfg.N {
			cfg.Pilot = cfg.N
		}
	}
	if cfg.PilotK <= 0 {
		cfg.PilotK = cfg.Pilot/2 + 1
	}
	if cfg.Topo == nil {
		cfg.Topo = gridFor(cfg.N)
	}

	look := sim.MinDelayBound(cfg.Delay)
	sh := sim.NewShards(cfg.Shards, look, cfg.Seed)
	sh.SetWorkers(cfg.Workers)
	smap := network.ShardMap{Procs: cfg.N + 1, Shards: cfg.Shards}
	snet := network.NewSharded(sh, cfg.Topo, cfg.Delay, smap, workload.DeriveSeed(cfg.Seed, 0x1))
	snet.NeighborScope = true
	snet.AlwaysReach = []int{cfg.N}

	h := &ShardedHarness{
		Cfg: cfg, Sh: sh, Net: snet,
		Worlds:  make([]*world.World, cfg.Shards),
		objBase: make([]int, cfg.Shards),
		Pred:    PilotPred(cfg.Pilot, cfg.PilotK),
	}
	for k := range h.Worlds {
		h.Worlds[k] = world.New(sh.Engine(k))
		h.objBase[k] = -1
	}

	// Sensors and objects, all indexed by sensor. Each sensor's world
	// object lives on its own shard; the per-shard object id is the
	// sensor's offset from the shard's first sensor.
	h.Sensors = NewSensors(snet, SensorConfig{N: cfg.N, Kind: DiffVectorStrobe, CheckerIdx: cfg.N, Record: cfg.record},
		func(i int) Transport { return snet.Part(smap.Of(i)) })
	for i := range h.Sensors {
		k := smap.Of(i)
		if h.objBase[k] < 0 {
			h.objBase[k] = i
		}
		h.Worlds[k].AddObject("", nil)
	}
	// Fleet workload: one materialized source over global sensor indices.
	// The stream is generated (or replayed) identically at every shard
	// count; the per-sensor toggler streams match the former in-loop
	// installation exactly (one workload-root fork per sensor, in sensor
	// order).
	src := cfg.Workload
	if src == nil {
		src = workload.TogglerFleet{
			Seed: workload.DeriveSeed(cfg.Seed, 0x2), N: cfg.N, Attr: "p",
			MeanHigh: cfg.MeanHigh, MeanLow: cfg.MeanLow,
		}
	}
	h.Events = src.Events(cfg.Horizon)
	for _, ev := range h.Events {
		if ev.Obj < 0 || ev.Obj >= cfg.N {
			panic(fmt.Sprintf("core: workload event targets object %d; fleet objects are 0..%d",
				ev.Obj, cfg.N-1))
		}
	}
	// Each shard's world hosts the sensors [base, end). Sensor i senses its
	// own object's "p" as variable "p": one listener per world does the
	// binding for every object it hosts, where a Bind per sensor would cost
	// a closure and a listener slice each. The shard's pump reads h.Events
	// in place and fires the events of the sensors it hosts as local
	// objects. Ground truth is scored on the pilot only: each world logs
	// just the pilot objects it hosts (local ids below Pilot − base), which
	// on a shard past the pilot is none.
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
		w.LogBelow(cfg.Pilot - base)
		workload.InstallRange(sh.Engine(k), w, h.Events, base, end)
	}

	if cfg.CheckerFanout >= 2 {
		h.Tree = checker.New(checker.Config{
			N: cfg.N, Pred: h.Pred, Fanout: cfg.CheckerFanout,
			RaceAware:     cfg.raceAware,
			BatchInterval: look,
		})
		h.Tree.SetObs(cfg.Obs)
		onStrobes(snet, cfg.N, func(m StrobeMsg, now sim.Time) { h.Tree.OnReport(treeReport(m), now) })
		h.det = h.Tree
	} else {
		h.Checker = newStrobeChecker(cfg.N, h.Pred, cfg.raceAware)
		h.Checker.SetObs(cfg.Obs)
		h.Checker.Register(snet, cfg.N)
		h.det = h.Checker
	}

	if cfg.Obs != nil {
		cfg.Obs.SetNow("virtual", sh.Now)
		snet.SetObs(cfg.Obs)
	}
	at := func(i int, t sim.Time, fn sim.Handler) { sh.Engine(smap.Of(i)).At(t, fn) }
	h.Faults = ScheduleFaults(cfg.Faults, h.Sensors, snet.SetFaults, at, cfg.Obs, nil)
	return h
}

// treeReport strips the transport envelope off a strobe for the checker
// tree (the checker package sits below core in the import graph).
func treeReport(m StrobeMsg) checker.Report {
	return checker.Report{
		Proc: m.Proc, Seq: m.Seq, Epoch: m.Epoch,
		Var: m.Var, Value: m.Value,
		Vec: m.Vec, Scalar: m.Scalar, Sparse: m.Sparse,
	}
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

// Tol is the scoring tolerance: the delay bound (100 ms when unbounded)
// plus 1 ms.
func (h *ShardedHarness) Tol() sim.Duration { return finiteBound(h.Cfg.Delay) + sim.Millisecond }

// Run executes to the horizon, drains in-flight control traffic, and
// scores against the merged pilot ground truth.
func (h *ShardedHarness) Run() ShardedResults {
	horizon := h.Cfg.Horizon
	h.Sh.Run(horizon)
	h.Sh.RunAll() // settle in-flight strobes (bounded delay models)

	res := ShardedResults{
		Results:   Results{Net: h.Net.TotalStats(), Horizon: horizon},
		Epochs:    h.Sh.Epochs,
		CrossSent: h.Sh.CrossSent,
	}
	// the merged log's binding is identity: sensor i senses object i's "p" as variable "p"
	truth := world.Oracle{Pred: h.Pred, N: h.Cfg.N, KeysOf: world.IdentityKeys, Obs: h.Cfg.Obs}
	FinishAndScore(&res.Results, h.det, h.mergedPilotLog(), truth, h.Tol())
	for _, s := range h.Sensors {
		res.ClockBytes += int64(s.ClockStateBytes())
	}
	return res
}

// mergedPilotLog merges the per-shard ground-truth logs into one global
// log over pilot sensors, remapping per-world object ids to global sensor
// indices. Shard logs are concatenated in shard order and stably sorted by
// (time, global object): within a key each event set comes from a single
// shard in its execution order, so the merge is shard-count invariant —
// Seq included, renumbered to the position in the merged log (a world's own
// positions say nothing across shards). The filter stays although every
// world already bounds its log to the pilot: the bound is memory, this is
// what gets scored.
func (h *ShardedHarness) mergedPilotLog() []world.Event {
	size := 0
	for _, w := range h.Worlds {
		size += len(w.Log())
	}
	out := make([]world.Event, 0, size)
	for k, w := range h.Worlds {
		base := h.objBase[k]
		for _, ev := range w.Log() {
			g := base + ev.Object
			if g >= h.Cfg.Pilot {
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
func (h *ShardedHarness) CounterLines() []string {
	t := h.Net.TotalStats()
	var applied, stale int64
	if h.Tree != nil {
		applied, stale = h.Tree.Stat.Applied, h.Tree.Stat.Stale
	} else {
		applied, stale = h.Checker.Applied, h.Checker.Stale
	}
	lines := []string{
		"net.sent=" + strconv.FormatInt(t.Sent, 10),
		"net.delivered=" + strconv.FormatInt(t.Delivered, 10),
		"net.dropped=" + strconv.FormatInt(t.Dropped, 10),
		"net.bytes=" + strconv.FormatInt(t.Bytes, 10),
		"checker.applied=" + strconv.FormatInt(applied, 10),
		"checker.stale=" + strconv.FormatInt(stale, 10),
		"sim.executed=" + strconv.FormatUint(h.Sh.ExecutedTotal(), 10),
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
