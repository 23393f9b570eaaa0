package main

import (
	"fmt"
	"runtime"

	"pervasive/internal/checker"
	"pervasive/internal/clock"
	"pervasive/internal/core"
	"pervasive/internal/lattice"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/runner"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/workload"
	"pervasive/internal/world"
)

// metricDef names one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; the smoke test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the base
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are what a user of the pipeline sees, per rep. Every workload
// reports all six. The bounds are sized from runs that differ in seed,
// three times the widest interquartile spread any workload showed over
// ten seeds: the three timings sit at the cap because the reference box
// itself drifts by 18-35 % within the hour (see README.md).
var endToEnd = []metricDef{
	{"wall_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"alloc_mb", "MB", lower, 0.12},
	{"mallocs_k", "k", lower, 0.04},
	{"live_heap_mb", "MB", lower, 0.10},
	{"setup_s", "s", lower, 0.25},
}

// perLayerDefs are single-layer metrics, prefixed by module name. A
// metric that does not apply to a workload (sim.* on tables,
// experiments.* on a fleet) reads 0 there. Drills are fixed
// micro-inputs, the same on every workload: they price one operation of
// a layer, so a saving inside sim.run can be predicted as count × drill
// delta until the program carries spans of its own.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{Name: "workload.events", Unit: "count", Better: lower},
		{Name: "workload.trace_bytes", Unit: "B", Better: lower},
		{Name: "workload.bytes_per_event", Unit: "B", Better: lower},
		{Name: "workload.decode_s", Unit: "s", Better: lower},
		{Name: "workload.gen_events_per_s", Unit: "1/s", Better: higher},
		{Name: "workload.encode_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "workload.decode_mb_per_s", Unit: "MB/s", Better: higher},

		{Name: "core.build_s", Unit: "s", Better: lower},
		{Name: "core.score_s", Unit: "s", Better: lower},
		{Name: "core.recall", Unit: "ratio", Better: higher},
		{Name: "core.precision", Unit: "ratio", Better: higher},
		{Name: "core.occurrences", Unit: "count", Better: higher},

		{Name: "sim.run_s", Unit: "s", Better: lower},
		{Name: "sim.executed", Unit: "count", Better: lower},
		{Name: "sim.ns_per_event", Unit: "ns", Better: lower},
		{Name: "sim.epochs", Unit: "count", Better: lower},
		{Name: "sim.cross_sent", Unit: "count", Better: lower},
		{Name: "sim.drill_step_ns", Unit: "ns", Better: lower},
		{Name: "sim.drill_epoch_ns", Unit: "ns", Better: lower},

		{Name: "network.sent", Unit: "count", Better: lower},
		{Name: "network.delivered", Unit: "count", Better: lower},
		{Name: "network.dropped", Unit: "count", Better: lower},
		{Name: "network.bytes", Unit: "B", Better: lower},
		{Name: "network.cross_ratio", Unit: "ratio", Better: lower},
		{Name: "network.drill_msg_ns", Unit: "ns", Better: lower},

		{Name: "clock.state_bytes", Unit: "B", Better: lower},
		{Name: "clock.drill_merge_sparse_ns", Unit: "ns", Better: lower},
		{Name: "clock.drill_merge_dense_ns", Unit: "ns", Better: lower},
		{Name: "clock.drill_strobe_dense_ns", Unit: "ns", Better: lower},

		{Name: "world.drill_set_ns", Unit: "ns", Better: lower},
		{Name: "world.drill_truth_narrow_ns", Unit: "ns", Better: lower},
		{Name: "world.drill_truth_wide_ns", Unit: "ns", Better: lower},

		{Name: "checker.applied", Unit: "count", Better: lower},
		{Name: "checker.stale", Unit: "count", Better: lower},
		{Name: "checker.stale_ratio", Unit: "ratio", Better: lower},
		{Name: "checker.pred_evals", Unit: "count", Better: lower},
		{Name: "checker.tree_batches", Unit: "count", Better: lower},
		{Name: "checker.tree_coalesced", Unit: "count", Better: higher},
		{Name: "checker.tree_wire_bytes", Unit: "B", Better: lower},
		{Name: "checker.drill_tree_report_ns", Unit: "ns", Better: lower},
		{Name: "checker.drill_flat_report_ns", Unit: "ns", Better: lower},

		{Name: "lattice.cuts", Unit: "count", Better: lower},
		{Name: "lattice.drill_survey_cuts_per_s", Unit: "1/s", Better: higher},
		{Name: "runner.jobs", Unit: "count", Better: lower},
		{Name: "runner.drill_job_ns", Unit: "ns", Better: lower},
	}
	for _, id := range tableIDs {
		defs = append(defs, metricDef{Name: "experiments." + id + "_s", Unit: "s", Better: lower})
	}
	return append(defs,
		metricDef{Name: "obs.overhead_pct", Unit: "%", Better: lower},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
		metricDef{Name: "runtime.gc_cpu_s", Unit: "s", Better: lower},
	)
}()

func counter(snap obs.Snapshot, name string) float64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return float64(c.Value)
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts reads the per-layer counts off one traced rep: from
// CounterLines' sources, ShardedResults and the rep's obs snapshot.
func layerCounts(s spec, in *input, o *outcome) map[string]float64 {
	m := map[string]float64{}
	snap := o.reg.Snapshot()
	if !s.isFleet() {
		m["lattice.cuts"] = counter(snap, "lattice.cuts")
		m["runner.jobs"] = counter(snap, "runner.jobs")
		return m
	}
	h, res := o.scale.Harness, o.res
	m["workload.events"] = float64(in.events)
	m["workload.trace_bytes"] = float64(in.bytes)
	m["workload.bytes_per_event"] = ratio(float64(in.bytes), float64(in.events))
	m["core.recall"] = res.Confusion.Recall()
	m["core.precision"] = res.Confusion.Precision()
	m["core.occurrences"] = float64(len(res.Occurrences))
	m["sim.executed"] = float64(h.Sh.ExecutedTotal())
	m["sim.epochs"] = float64(res.Epochs)
	m["sim.cross_sent"] = float64(res.CrossSent)
	m["network.sent"] = float64(res.Net.Sent)
	m["network.delivered"] = float64(res.Net.Delivered)
	m["network.dropped"] = float64(res.Net.Dropped)
	m["network.bytes"] = float64(res.Net.Bytes)
	m["network.cross_ratio"] = ratio(float64(res.CrossSent), float64(res.Net.Sent))
	m["clock.state_bytes"] = float64(res.ClockBytes)
	var applied, stale int64
	if t := h.Tree; t != nil {
		applied, stale = t.Stat.Applied, t.Stat.Stale
		m["checker.tree_batches"] = float64(t.Stat.Batches)
		m["checker.tree_coalesced"] = float64(t.Stat.Coalesced)
		m["checker.tree_wire_bytes"] = float64(t.Stat.WireBytes)
	} else {
		applied, stale = h.Checker.Applied, h.Checker.Stale
	}
	m["checker.applied"] = float64(applied)
	m["checker.stale"] = float64(stale)
	m["checker.stale_ratio"] = ratio(float64(stale), float64(applied+stale))
	m["checker.pred_evals"] = counter(snap, "checker.pred_evals")
	return m
}

// perLayer assembles every per-layer metric of a traced run: counts
// from the last traced rep (the digest check has already shown that
// every rep agrees), timings as medians over the traced reps, then the
// drills.
func perLayer(s spec, opt options, plain, traced []repResult) map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.Name] = 0
	}
	for k, v := range traced[len(traced)-1].counts {
		m[k] = v
	}
	phase := func(get func(phases) float64) float64 {
		return column(traced, func(r repResult) float64 { return get(r.ph) }).Median
	}
	if s.isFleet() {
		m["workload.decode_s"] = phase(func(p phases) float64 { return p.decode })
		m["core.build_s"] = phase(func(p phases) float64 { return p.build })
		m["core.score_s"] = phase(func(p phases) float64 { return p.score })
		m["sim.run_s"] = phase(func(p phases) float64 { return p.run })
		m["sim.ns_per_event"] = ratio(m["sim.run_s"]*1e9, m["sim.executed"])
	} else {
		for _, id := range tableIDs {
			m["experiments."+id+"_s"] = phase(func(p phases) float64 { return p.experiments[id] })
		}
	}
	wall := func(r repResult) float64 { return r.wallS }
	m["obs.overhead_pct"] = 100 * (ratio(column(traced, wall).Median, column(plain, wall).Median) - 1)
	m["runtime.gc_cycles"] = column(plain, func(r repResult) float64 { return r.gcCycles }).Median
	m["runtime.gc_cpu_s"] = column(plain, func(r repResult) float64 { return r.gcCPU }).Median

	// Drills price one operation of a layer on a fixed input. They run
	// on every core the box has whatever the workload pinned, so their
	// numbers do not depend on which workload's run they rode along with.
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	drills(m, opt.size, opt.seed)
	return m
}

func drills(m map[string]float64, sz sizes, seed uint64) {
	p, ops := sz.drillP, sz.drillOps

	// workload: generate, encode, decode a small fleet
	gen := workload.TogglerFleet{
		Seed: workload.DeriveSeed(seed, 0xd1), N: p, Attr: "p",
		MeanHigh: 1200 * sim.Millisecond, MeanLow: 400 * sim.Millisecond,
	}
	var evs []workload.Event
	genNs := drillNs(1, func(int) { evs = gen.Events(2 * sim.Second) })
	m["workload.gen_events_per_s"] = ratio(float64(len(evs))*1e9, genNs)
	tr := &workload.Trace{Horizon: 2 * sim.Second, Events: evs}
	var data []byte
	encNs := drillNs(1, func(int) { data = tr.Encode() })
	m["workload.encode_mb_per_s"] = ratio(float64(len(data))/mb*1e9, encNs)
	decNs := drillNs(1, func(int) {
		if _, err := workload.Decode(data); err != nil {
			panic(err) // the bytes were encoded two lines up
		}
	})
	m["workload.decode_mb_per_s"] = ratio(float64(len(data))/mb*1e9, decNs)

	// sim: one After+Step with p timers pending
	{
		e := sim.NewEngine(seed)
		nop := func(sim.Time) {}
		for i := 0; i < p; i++ {
			e.After(sim.Duration(1+i%97), nop)
		}
		m["sim.drill_step_ns"] = drillNs(ops, func(n int) {
			for i := 0; i < n; i++ {
				e.After(sim.Duration(1+i%97), nop)
				e.Step()
			}
		})
	}
	// sim: one lockstep epoch of 4 shards, each with a single event in it
	{
		const look = sim.Millisecond
		sh := sim.NewShards(4, look, seed)
		sh.SetWorkers(min(4, runtime.NumCPU()))
		for k := 0; k < sh.N(); k++ {
			e := sh.Engine(k)
			var tick sim.Handler
			tick = func(now sim.Time) { e.At(now+look, tick) }
			e.At(look, tick)
		}
		until := sim.Time(0)
		m["sim.drill_epoch_ns"] = drillNs(ops/8, func(n int) {
			until += sim.Time(n) * look
			sh.Run(until)
		})
	}
	// network: one link-level message of a neighbourhood broadcast,
	// sent and delivered to a handler that does nothing
	{
		side := 1
		for side*side < p {
			side++
		}
		sh := sim.NewShards(1, 0, seed)
		delay := sim.NewDeltaBounded(5 * sim.Millisecond)
		sn := network.NewSharded(sh, network.Grid{Rows: side, Cols: side}, delay,
			network.ShardMap{Procs: side*side + 1, Shards: 1}, seed)
		sn.NeighborScope = true
		sn.AlwaysReach = []int{side * side}
		for i := 0; i < sn.N(); i++ {
			sn.Register(i, func(network.Message, sim.Time) {})
		}
		part := sn.Part(0)
		sent := func() int64 { return sn.TotalStats().Sent }
		var msgs int64
		perBatch := drillNs(1, func(int) {
			before := sent()
			for i := 0; i < ops/4; i++ {
				part.Broadcast(i%(side*side), drillPayload{})
			}
			sh.RunAll()
			msgs = sent() - before
		})
		m["network.drill_msg_ns"] = ratio(perBatch, float64(msgs))
	}
	// clock: merge a 4-entry stamp into a sparse vector that knows 16
	// peers (fleet-wide's regime) and one that knows all p (fleet-long's),
	// and stamp a strobe from the saturated one
	{
		mergeNs := func(known int) (float64, *clock.SparseStrobeVector) {
			v := clock.NewSparseStrobeVector(0, p+1)
			fill := make(clock.SparseStamp, known)
			for i := range fill {
				fill[i] = clock.SparseEntry{Proc: 1 + i*(p/known), Val: 1}
			}
			v.OnStrobe(fill)
			tick := uint64(1)
			return drillNs(ops, func(n int) {
				for i := 0; i < n; i++ {
					tick++
					a := 1 + (i%known)*(p/known)
					v.OnStrobe(clock.SparseStamp{
						{Proc: a, Val: tick}, {Proc: fill[known/4].Proc, Val: tick},
						{Proc: fill[known/2].Proc, Val: tick}, {Proc: fill[known-1].Proc, Val: tick},
					})
				}
			}), v
		}
		m["clock.drill_merge_sparse_ns"], _ = mergeNs(16)
		var dense *clock.SparseStrobeVector
		m["clock.drill_merge_dense_ns"], dense = mergeNs(p)
		m["clock.drill_strobe_dense_ns"] = drillNs(ops/16, func(n int) {
			for i := 0; i < n; i++ {
				dense.Strobe()
			}
		})
	}
	// world: one Set that fires one subscriber
	{
		w := world.New(sim.NewEngine(seed))
		obj := w.AddObject("o", nil)
		w.Subscribe(obj, "p", func(world.Event) {})
		w.DiscardLog()
		m["world.drill_set_ns"] = drillNs(ops, func(n int) {
			for i := 0; i < n; i++ {
				w.Set(obj, "p", float64(i&1))
			}
		})
	}
	// world: ground-truth replay per log event, under a predicate that
	// reads 8 sensors and one that reads all p
	{
		truthNs := func(sensors, events int) float64 {
			log := make([]world.Event, events)
			for i := range log {
				log[i] = world.Event{Seq: i, At: sim.Time(i + 1), Object: i % sensors, Attr: "p",
					New: float64((i/sensors + 1) & 1), Cause: -1}
			}
			pred := core.PilotPred(sensors, sensors/2+1)
			truth := func(get func(obj int, attr string) float64) bool {
				return pred.Holds(truthState{n: sensors, get: get})
			}
			return drillNs(1, func(int) { world.TrueIntervals(log, truth, sim.Time(events+1)) }) / float64(events)
		}
		m["world.drill_truth_narrow_ns"] = truthNs(8, ops)
		m["world.drill_truth_wide_ns"] = truthNs(p, max(ops/128, 8))
	}
	// checker: one report of cmd/benchchecker's stream (every process
	// toggling once per sweep) under sum(p) >= p/3
	{
		pred := predicate.MustParse(fmt.Sprintf("sum(p) >= %d", p/3))
		report := func(i int) (proc, seq int, v float64, at sim.Time) {
			return i % p, i/p + 1, float64((i%p + i/p) % 2), sim.Time(i + 1)
		}
		tree := checker.New(checker.Config{N: p, Pred: pred, Fanout: 16})
		next := 0
		m["checker.drill_tree_report_ns"] = drillNs(ops, func(n int) {
			for end := next + n; next < end; next++ {
				proc, seq, v, at := report(next)
				tree.OnReport(checker.Report{Proc: proc, Seq: seq, Var: "p", Value: v,
					Sparse: clock.SparseStamp{{Proc: proc, Val: uint64(seq)}}}, at)
			}
		})
		flat := core.NewScalarChecker(p, pred)
		next = 0
		m["checker.drill_flat_report_ns"] = drillNs(max(ops/64, 8), func(n int) {
			for end := next + n; next < end; next++ {
				proc, seq, v, at := report(next)
				flat.OnStrobe(core.StrobeMsg{Proc: proc, Seq: seq, Var: "p", Value: v,
					Sparse: clock.SparseStamp{{Proc: proc, Val: uint64(seq)}}}, at)
			}
		})
	}
	// lattice: survey a 4-process, 6-events-each strobed execution
	{
		e := strobedExecution(seed, 4, 6)
		var cuts int64
		ns := drillNs(max(ops/256, 2), func(n int) {
			for i := 0; i < n; i++ {
				cuts = e.Survey(lattice.SurveyOptions{}).Count
			}
		})
		m["lattice.drill_survey_cuts_per_s"] = ratio(float64(cuts)*1e9, ns)
	}
	// runner: one empty job through the pool
	m["runner.drill_job_ns"] = drillNs(1, func(int) {
		runner.Map(runtime.NumCPU(), ops, func(i int) int { return i })
	}) / float64(ops)
}

type drillPayload struct{}

func (drillPayload) WireSize() int { return 16 }
func (drillPayload) Kind() string  { return "drill" }

// truthState adapts ground-truth lookups to predicate.State the way the
// sharded harness does (sensor i senses object i's "p").
type truthState struct {
	n   int
	get func(obj int, attr string) float64
}

func (s truthState) Get(proc int, name string) float64 { return s.get(proc, name) }
func (s truthState) NumProcs() int                     { return s.n }

// strobedExecution is the lattice benchmarks' workload: n processes of p
// events each in round-robin order, every event merging a random earlier
// strobe with probability 0.7 before publishing its own.
func strobedExecution(seed uint64, n, p int) *lattice.Execution {
	r := stats.NewRNG(seed)
	e := &lattice.Execution{
		Stamps: make([][]clock.Vector, n),
		Times:  make([][]sim.Time, n),
	}
	clocks := make([]*clock.StrobeVector, n)
	for i := range clocks {
		clocks[i] = clock.NewStrobeVector(i, n)
	}
	var published []clock.Vector
	for step := 0; step < n*p; step++ {
		i := step % n
		if len(published) > 0 && r.Bool(0.7) {
			clocks[i].OnStrobe(published[r.Intn(len(published))])
		}
		v := clocks[i].Strobe()
		published = append(published, v)
		e.Stamps[i] = append(e.Stamps[i], v)
		e.Times[i] = append(e.Times[i], sim.Time(step))
	}
	return e
}
