package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"pervasive/internal/core"
	"pervasive/internal/experiments"
	"pervasive/internal/lattice"
	"pervasive/internal/obs"
	"pervasive/internal/runner"
	"pervasive/internal/scenario"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// sizes is everything that scales a run. The benchmark always runs
// fullSize; the smoke test runs the same code at smokeSize.
type sizes struct {
	name                       string
	wideP, longP, aggP         int
	wideH, longH, aggH         sim.Time
	aggFanout                  int
	quickTables                bool
	drillP, drillOps, probeRun int
}

var fullSize = sizes{
	name:  "full",
	wideP: 65536, wideH: 2 * sim.Second,
	longP: 4096, longH: 12 * sim.Second,
	aggP: 4096, aggH: 2 * sim.Second, aggFanout: 16,
	drillP: 4096, drillOps: 1 << 16, probeRun: 45,
}

var smokeSize = sizes{
	name:  "smoke",
	wideP: 512, wideH: sim.Second,
	longP: 256, longH: 2 * sim.Second,
	aggP: 256, aggH: sim.Second, aggFanout: 4,
	quickTables: true,
	drillP:      256, drillOps: 1 << 10, probeRun: 3,
}

// fleetConfig is how one fleet trace is pushed through the pipeline.
type fleetConfig struct {
	Shards, Workers, Pilot, Fanout int
}

// spec is one workload. A fleet workload has a generator size (p,
// horizon) and a configuration; tables has neither. cross, when set, is
// a second configuration that must produce the identical digest: the
// warm-up rep runs it, so the check costs no extra rep.
type spec struct {
	name, why  string
	gomaxprocs int
	p          int
	horizon    sim.Time
	cfg        fleetConfig
	cross      *fleetConfig
	// tables only: the pool size of the timed reps; the warm-up runs
	// the same experiments at parallelism 1.
	parallelism int
}

func (s spec) isFleet() bool { return s.p > 0 }

// tableIDs are the experiments of the tables workload: everything
// cmd/experiments runs on the classic stack. E14–E16 are left out: E15
// alone is 10 s of flat-checker oracle and would drown the rest.
var tableIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
	"A1", "A2", "A3", "A4", "A5", "A6", "A7",
}

// specs builds the five workloads at the given size for a box with
// nproc CPUs.
func specs(sz sizes, nproc int) []spec {
	one := fleetConfig{Shards: 1, Workers: 1, Pilot: 8}
	par := fleetConfig{Shards: 4, Workers: min(4, nproc), Pilot: 8}
	return []spec{
		{
			name: "fleet-wide",
			why: "many sensors, short histories: clock vectors stay tiny, so event heap, " +
				"transport delivery, world.Set and GC do the work; the single-core anchor",
			gomaxprocs: 1, p: sz.wideP, horizon: sz.wideH, cfg: one,
			cross: &fleetConfig{Shards: 4, Workers: 1, Pilot: 8},
		},
		{
			name: "fleet-wide-par",
			why: "the fleet-wide trace through 4 sim.Shards and the cross-shard mailbox on " +
				"every core; digest must equal fleet-wide; where sharding cost and gain show",
			gomaxprocs: nproc, p: sz.wideP, horizon: sz.wideH, cfg: par, cross: &one,
		},
		{
			name: "fleet-long",
			why: "few sensors, long histories: every sparse vector fills to O(p), so clock " +
				"merge/stamp and clock memory dominate and sim/network bookkeeping is minor",
			gomaxprocs: 1, p: sz.longP, horizon: sz.longH, cfg: one,
		},
		{
			name: "fleet-agg",
			why: "fleet-wide sum>=k predicate (the hall-occupancy shape): checker tree and " +
				"oracle scoring do the work, kernel and clocks almost none",
			gomaxprocs: 1, p: sz.aggP, horizon: sz.aggH,
			cfg: fleetConfig{Shards: 1, Workers: 1, Pilot: sz.aggP, Fanout: sz.aggFanout},
		},
		{
			name: "tables",
			why: "E1-E13 + A1-A7 as cmd/experiments runs them: the classic stack (core.Harness, " +
				"dense clocks, flat race-aware checker, network.Net), lattice.Survey, runner.Map",
			gomaxprocs: nproc, parallelism: nproc,
		},
	}
}

func workloadNames() []string {
	var names []string
	for _, s := range specs(fullSize, 1) {
		names = append(names, s.name)
	}
	return names
}

func specByName(sz sizes, nproc int, name string) (spec, bool) {
	for _, s := range specs(sz, nproc) {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// fleetSeed is the generator seed of a fleet workload. fleet-wide and
// fleet-wide-par share one size, hence one stream and one trace.
func fleetSeed(seed uint64, s spec) uint64 {
	return workload.DeriveSeed(seed, uint64(s.p)<<20|uint64(s.horizon/sim.Millisecond))
}

// input is a generated fleet trace on disk plus what generating it cost.
type input struct {
	path          string
	events, bytes int
	streamDigest  string
	setupS        dist
}

// generate builds the workload's PVWL trace (the program under test only
// ever sees the bytes) and reports the median cost of one generation. It
// generates at least three times and goes on until two seconds of set-up
// have been measured: a small trace takes 10 ms, and a median of three
// such timings moves by a third from one run to the next. Each generation
// starts from a collected heap, as each rep does: on a heap this small
// the pacer otherwise settles, run by run, into one of two states that
// differ by a factor of 1.6 in generation time.
func generate(s spec, seed uint64, dir string) (*input, error) {
	in := &input{path: filepath.Join(dir, s.name+".pvwl")}
	const minGens, maxGens, budget = 3, 25, 2 * time.Second
	var costs []float64
	for begin := time.Now(); len(costs) < minGens || (len(costs) < maxGens && time.Since(begin) < budget); {
		runtime.GC()
		start := time.Now()
		evs := workload.TogglerFleet{
			Seed: fleetSeed(seed, s), N: s.p, Attr: "p",
			MeanHigh: 1200 * sim.Millisecond, MeanLow: 400 * sim.Millisecond,
		}.Events(s.horizon)
		tr := &workload.Trace{
			Horizon: s.horizon, Events: evs,
			Meta: map[string]string{"scenario": "scale", "sensors": strconv.Itoa(s.p)},
		}
		data := tr.Encode()
		if err := os.WriteFile(in.path, data, 0o644); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		costs = append(costs, time.Since(start).Seconds())
		if len(costs) == 1 {
			in.events, in.bytes = len(evs), len(data)
			in.streamDigest = workload.Digest(evs)
		}
	}
	in.setupS = summarize(costs)
	return in, nil
}

// phases are the wall-clock seconds of one rep's calls into each layer.
type phases struct {
	decode, build, run, score float64
	experiments               map[string]float64
}

// repResult is what is kept of a rep once its outcome is dropped.
type repResult struct {
	sample
	digest string
	err    error
	ph     phases
	counts map[string]float64 // traced reps: the per-layer counts
}

// outcome is everything a rep produced; measure keeps it referenced
// while the live heap is sized.
type outcome struct {
	digest string
	err    error
	ph     phases
	reg    *obs.Registry // nil on untraced reps

	// fleet reps
	scale       *scenario.Scale
	res         core.ShardedResults
	traceEvents []workload.Event

	// tables reps
	tables []*experiments.Table
}

// fleetRep is one operation of a fleet workload: read the trace, decode
// it, build the sharded harness, run the event loop, score. The event
// loop is driven from here (Sh.Run + Sh.RunAll, exactly what
// Harness.Run does first) so that it gets its own span; the Run() that
// follows finds the loop drained and only finishes and scores.
func fleetRep(in *input, seed uint64, cfg fleetConfig, reg *obs.Registry, sp *spanLog, rep int) (out *outcome) {
	out = &outcome{reg: reg}
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("rep panicked: %v", r)
		}
	}()
	root := sp.start("rep", -1, rep)
	t0 := time.Now()

	s := sp.start("workload.decode", root, rep)
	data, err := os.ReadFile(in.path)
	if err != nil {
		out.err = err
		return out
	}
	tr, err := workload.Decode(data)
	if err != nil {
		out.err = fmt.Errorf("decode: %w", err)
		return out
	}
	n, err := strconv.Atoi(tr.Meta["sensors"])
	if err != nil {
		out.err = fmt.Errorf("trace meta \"sensors\": %w", err)
		return out
	}
	sp.end(s)
	t1 := time.Now()

	s = sp.start("core.build", root, rep)
	out.scale = scenario.NewScale(scenario.ScaleConfig{
		Seed: seed, N: n,
		Shards: cfg.Shards, Workers: cfg.Workers, Horizon: tr.Horizon,
		Pilot: cfg.Pilot, CheckerFanout: cfg.Fanout,
		Workload: workload.EventSource(tr.Events), Obs: reg,
	})
	sp.end(s)
	t2 := time.Now()

	s = sp.start("sim.run", root, rep)
	h := out.scale.Harness
	h.Sh.Run(tr.Horizon)
	h.Sh.RunAll()
	sp.end(s)
	t3 := time.Now()

	s = sp.start("core.score", root, rep)
	out.res = out.scale.Run()
	sp.end(s)
	t4 := time.Now()
	sp.end(root)

	out.traceEvents = tr.Events
	out.ph = phases{
		decode: t1.Sub(t0).Seconds(), build: t2.Sub(t1).Seconds(),
		run: t3.Sub(t2).Seconds(), score: t4.Sub(t3).Seconds(),
	}
	return out
}

// fleetDigest hashes the run's observable surface: the shard-invariant
// counters, every occurrence and race marker, and the confusion matrix.
func fleetDigest(o *outcome) string {
	h := sha256.New()
	for _, l := range o.scale.Harness.CounterLines() {
		fmt.Fprintln(h, l)
	}
	for _, oc := range o.res.Occurrences {
		fmt.Fprintln(h, int64(oc.Start), int64(oc.End), oc.Borderline)
	}
	for _, m := range o.res.Markers {
		fmt.Fprintln(h, int64(m))
	}
	fmt.Fprintf(h, "%+v\n", o.res.Confusion)
	return hex.EncodeToString(h.Sum(nil))
}

// selectedExperiments resolves tableIDs against the registry.
func selectedExperiments() ([]experiments.Experiment, error) {
	byID := map[string]experiments.Experiment{}
	for _, e := range experiments.AllWithAblations() {
		byID[e.ID] = e
	}
	out := make([]experiments.Experiment, 0, len(tableIDs))
	for _, id := range tableIDs {
		e, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("experiment %s is not registered", id)
		}
		out = append(out, e)
	}
	return out, nil
}

// tablesRep is one operation of the tables workload: every selected
// experiment, rendered; the digest is over the rendered text.
func tablesRep(exps []experiments.Experiment, seed uint64, quick bool, parallelism int,
	reg *obs.Registry, sp *spanLog, rep int) (out *outcome) {
	out = &outcome{reg: reg, ph: phases{experiments: map[string]float64{}}}
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("rep panicked: %v", r)
		}
	}()
	if reg != nil {
		runner.SetObs(reg)
		lattice.SetObs(reg)
		defer runner.SetObs(nil)
		defer lattice.SetObs(nil)
	}
	cfg := experiments.RunConfig{Seed: seed, Quick: quick, Parallelism: parallelism}
	h := sha256.New()
	root := sp.start("rep", -1, rep)
	for _, e := range exps {
		s := sp.start("experiments."+e.ID, root, rep)
		start := time.Now()
		t := e.Run(cfg)
		h.Write([]byte(t.String()))
		out.ph.experiments[e.ID] = time.Since(start).Seconds()
		sp.end(s)
		out.tables = append(out.tables, t)
	}
	sp.end(root)
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// options of one workload run.
type options struct {
	size    sizes
	seed    uint64
	seconds float64 // measuring budget; reps stop when the next would overrun it
	minReps int
	trace   bool
	tmpDir  string
	golden  map[string]string // nil: no pinned digests
	self    string            // this binary, for the start-up probe
	logf    func(format string, a ...any)
}

// result of one workload run; the JSON shape of -o files.
type result struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Size       string             `json:"size"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Shards     int                `json:"shards"`
	Workers    int                `json:"workers"`
	Traced     bool               `json:"traced"`
	Ops        int                `json:"ops"`
	FailedOps  int                `json:"failed_ops"`
	Correct    bool               `json:"correct"`
	Digest     string             `json:"digest"`
	Errors     []string           `json:"errors,omitempty"`
	EndToEnd   map[string]dist    `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`

	spans *spanLog
}

func (r *result) fail(format string, a ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, a...))
}

// goldenKey names a pinned digest: they exist for seed 1 only.
func goldenKey(sz sizes, name string) string { return sz.name + "/" + name }

// runWorkload runs one workload in this process: set-up, one warm-up rep
// (in the cross configuration, if the workload has one), then reps until
// the budget is used. Untraced reps give the end-to-end metrics. With
// opt.trace every untraced rep is followed by a traced one (Obs on,
// spans recorded) and the drills run at the end; that gives the
// per-layer metrics, and the traced-over-untraced ratio is the
// observability overhead.
func runWorkload(s spec, opt options) *result {
	prev := runtime.GOMAXPROCS(s.gomaxprocs)
	defer runtime.GOMAXPROCS(prev)

	r := &result{
		Workload: s.name, Seed: opt.seed, Size: opt.size.name, GOMAXPROCS: s.gomaxprocs,
		Shards: s.cfg.Shards, Workers: s.cfg.Workers, Traced: opt.trace,
		Correct: true, spans: &spanLog{},
	}

	var in *input
	var exps []experiments.Experiment
	var setup dist
	var err error
	if s.isFleet() {
		if in, err = generate(s, opt.seed, opt.tmpDir); err == nil {
			setup = in.setupS
		}
	} else if exps, err = selectedExperiments(); err == nil {
		setup, err = startupProbe(opt.self, opt.size.probeRun)
	}
	if err != nil {
		r.fail("set-up: %v", err)
		return r
	}

	// One rep in configuration cfg/parallelism, traced iff reg != nil.
	// Everything wanted from the outcome is taken here and the outcome
	// dropped: a retained harness would change the next rep's heap.
	rep := func(cfg fleetConfig, parallelism int, reg *obs.Registry, id int) repResult {
		var o *outcome
		var sp *spanLog // nil recorder: untraced reps record nothing
		if reg != nil {
			sp = r.spans
		}
		sm := measure(func() any {
			if s.isFleet() {
				o = fleetRep(in, opt.seed, cfg, reg, sp, id)
			} else {
				o = tablesRep(exps, opt.seed, opt.size.quickTables, parallelism, reg, sp, id)
			}
			return o
		})
		res := repResult{sample: sm, digest: o.digest, err: o.err, ph: o.ph}
		if o.err == nil && s.isFleet() {
			res.digest = fleetDigest(o)
			if got := workload.Digest(o.traceEvents); got != in.streamDigest {
				res.err = fmt.Errorf("decoded trace digest %.12s != generated stream %.12s", got, in.streamDigest)
			}
		}
		if reg != nil && res.err == nil {
			res.counts = layerCounts(s, in, o)
		}
		return res
	}

	// Warm-up: fills the heap and, where the workload has a second
	// configuration that must agree, is that configuration's run.
	warmCfg, warmPar := s.cfg, 1
	if s.cross != nil {
		warmCfg = *s.cross
	}
	warm := rep(warmCfg, warmPar, nil, 0)
	if warm.err != nil {
		r.fail("warm-up: %v", warm.err)
		return r
	}
	want := warm.digest
	if pinned, ok := opt.golden[goldenKey(opt.size, s.name)]; ok && opt.seed == 1 {
		if want != pinned {
			r.fail("warm-up digest %.12s != golden %.12s", want, pinned)
		}
		want = pinned
	}
	r.Digest = want

	var plain, traced []repResult
	check := func(kind string, id int, o repResult) bool {
		switch {
		case o.err != nil:
			r.fail("%s rep %d: %v", kind, id, o.err)
		case o.digest != want:
			r.fail("%s rep %d: digest %.12s, want %.12s", kind, id, o.digest, want)
		default:
			return true
		}
		return false
	}
	start := time.Now()
	var lastRound float64
	for id := 1; ; id++ {
		if id > opt.minReps && time.Since(start).Seconds()+lastRound > opt.seconds {
			break
		}
		roundStart := time.Now()
		o := rep(s.cfg, s.parallelism, nil, id)
		r.Ops++
		if !check("timed", id, o) {
			r.FailedOps++
		}
		plain = append(plain, o)
		opt.logf("  rep %d: %.3fs", id, o.wallS)
		if opt.trace {
			o := rep(s.cfg, s.parallelism, obs.NewRegistry(), id)
			r.Ops++
			if !check("traced", id, o) {
				r.FailedOps++
			}
			traced = append(traced, o)
			opt.logf("  rep %d traced: %.3fs", id, o.wallS)
		}
		lastRound = time.Since(roundStart).Seconds()
	}

	if !opt.trace {
		r.EndToEnd = map[string]dist{
			"wall_s":       column(plain, func(r repResult) float64 { return r.wallS }),
			"cpu_s":        column(plain, func(r repResult) float64 { return r.cpuS }),
			"alloc_mb":     column(plain, func(r repResult) float64 { return r.allocMB }),
			"mallocs_k":    column(plain, func(r repResult) float64 { return r.mallocsK }),
			"live_heap_mb": column(plain, func(r repResult) float64 { return r.liveHeapMB }),
			"setup_s":      setup,
		}
		return r
	}
	r.PerLayer = perLayer(s, opt, plain, traced)
	return r
}

// startupProbe is the set-up cost of a workload with no input to
// generate: what its users pay before the first experiment starts is
// process start — the Go runtime plus the package initialisation of
// every layer linked in. It re-executes this binary n times with the
// probe variable set, which makes main return at once.
func startupProbe(self string, n int) (dist, error) {
	starts := make([]float64, n)
	for i := range starts {
		start := time.Now()
		if err := runProbe(self); err != nil {
			return dist{}, fmt.Errorf("start-up probe: %w", err)
		}
		starts[i] = time.Since(start).Seconds()
	}
	return summarize(starts), nil
}
