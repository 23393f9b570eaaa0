// Command pervasim runs one of the paper's application scenarios on the
// deterministic simulator and prints a detection report.
//
// Usage:
//
//	pervasim -scenario hall -doors 4 -delta 100ms -kind vector
//	pervasim -scenario office -modality definitely
//	pervasim -scenario habitat -horizon 1h
//	pervasim -scenario hospital -alarm ward
//	pervasim -scenario hall -trace run.jsonl  # write the run record (JSONL)
//	pervasim -scenario hall -metrics m.json   # runtime metrics: JSON file
//	                                          # + table on stderr
//	pervasim -scenario hall -faults 'crash(1,20s);recover(1,40s)'
//	pervasim -scenario hall -flight dumps/    # flight-recorder dumps (JSONL)
//	pervasim -scenario hall -pprof localhost:6060
//	pervasim -scenario hall -record run.pvwl  # record the workload trace
//	pervasim -scenario hall -replay run.pvwl  # replay it byte-identically
//	pervasim -workload spec.txt               # compose generators from a spec
//
// Hall, hospital, habitat, proximity and -workload runs are wired by one
// scenario builder and take all of its run flags: -kind, -epsilon,
// -trace, -record and -replay. Office and scale have their own
// constructors with fixed clocks and refuse -kind, -epsilon and -trace;
// scale records and replays its fleet workload, while the office, whose
// thermostat walk reads what actuation writes, has none to record. Scale
// also refuses -flight: the recorder is single-writer.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"path/filepath"
	"strings"
	"time"

	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/scenario"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// ownConstructor says, for the two scenarios the builder does not wire,
// why its run flags do not apply to them.
var ownConstructor = map[string]string{
	"office": "office runs fixed strobe-vector clocks, and its thermostat walk reads what " +
		"actuation writes: a closed loop, with no materialized workload to trace, record or replay",
	"scale": "scale runs fixed strobe-diff-vector clocks on network.ShardedNet, which keeps no event trace",
}

// run executes one pervasim invocation and returns its exit status: 0 on
// success, 2 on a usage or run error (printed to stderr).
func run(args []string, stdout, stderr io.Writer) (code int) {
	// A -faults plan naming a process outside the fleet is refused where the
	// fleet's size is first known for every scenario — a builder scenario
	// sizes it from its workload — by the harness constructor's range check
	// (faults.Plan.Check, run in core.ScheduleFaults). That refusal is a
	// usage error; any other panic goes on.
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok || !strings.HasPrefix(msg, "core: fault plan") {
				panic(r)
			}
			fmt.Fprintln(stderr, "pervasim: -faults:", strings.TrimPrefix(msg, "core: "))
			code = 2
		}
	}()
	fs := flag.NewFlagSet("pervasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scen     = fs.String("scenario", "hall", "hall | office | hospital | habitat | proximity | scale")
		kindName = fs.String("kind", "vector", "vector | scalar | physical | diff (not office, scale)")
		delta    = fs.Duration("delta", 100*time.Millisecond, "message delay bound Δ")
		seed     = fs.Uint64("seed", 1, "random seed")
		horizon  = fs.Duration("horizon", 2*time.Minute, "simulated duration")
		doors    = fs.Int("doors", 4, "hall: number of doors")
		capacity = fs.Int("capacity", 200, "hall: room capacity")
		initial  = fs.Int("initial", 195, "hall: initial occupancy")
		modality = fs.String("modality", "instantaneously",
			"office: instantaneously | possibly | definitely")
		alarm       = fs.String("alarm", "crowding", "hospital: crowding | ward")
		epsilon     = fs.Duration("epsilon", time.Millisecond, "physical: sync skew bound ε (not office, scale)")
		tracePath   = fs.String("trace", "", "write the run record, every stamped sense event as a JSONL flight dump, to this file (not office, scale)")
		metricsPath = fs.String("metrics", "", "write a runtime-metrics JSON snapshot to this file and a table to stderr")
		faultsSpec  = fs.String("faults", "", "fault plan, e.g. 'crash(1,20s);recover(1,40s);partition(0.1|2,10s,30s)'")
		flightDir   = fs.String("flight", "", "attach the flight recorder; write trigger-scoped dumps (JSONL) into this directory (not scale)")
		flightK     = fs.Int("flight-k", flight.DefaultPerProc, "flight recorder capacity: last K events kept per process")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
		sensors     = fs.Int("sensors", 1024, "scale: fleet size")
		shards      = fs.Int("shards", 1, "scale: spatial shard count for the parallel kernel")
		workers     = fs.Int("workers", 1, "scale: >1 runs every shard of an epoch on its own goroutine, else one after another (output identical at any setting)")
		checkerFan  = fs.Int("checker-fanout", 0, "scale: regional checker-tree aggregators (<=1 runs the flat checker)")
		specPath    = fs.String("workload", "", "run a workload spec file on the generic spec scenario (replaces -scenario)")
		recordPath  = fs.String("record", "", "record the run's workload to this trace file (not office)")
		replayPath  = fs.String("replay", "", "replay a recorded workload trace; its horizon replaces -horizon")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pervasim:", err)
		return 2
	}

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fail(fmt.Errorf("-pprof: %w", err))
		}
		fmt.Fprintf(stderr, "pprof: http://%s/debug/pprof\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}

	kind, err := parseKind(*kindName)
	if err != nil {
		return fail(err)
	}
	mod, err := parseModality(*modality)
	if err != nil {
		return fail(err)
	}
	var plan *faults.Plan
	if *faultsSpec != "" {
		if plan, err = faults.Parse(*faultsSpec); err != nil {
			return fail(fmt.Errorf("-faults: %w", err))
		}
	}
	perProc := 0 // 0 keeps the flight recorder detached
	if *flightDir != "" {
		perProc = *flightK
	}
	delay := sim.NewDeltaBounded(dur(*delta))
	hz := dur(*horizon)

	var reg *obs.Registry // nil keeps every instrumented path a no-op
	if *metricsPath != "" {
		reg = obs.NewRegistry()
	}

	// Flags fail loudly when set for a scenario that would ignore them: a
	// silently ignored -sensors or -epsilon reads as a run that honored
	// it. Visit only sees flags the user actually set, so defaults never
	// trip this.
	effScen := *scen
	if *specPath != "" {
		effScen = "spec"
	}
	scoped := map[string]string{
		"sensors": "scale", "shards": "scale", "workers": "scale", "checker-fanout": "scale",
		"doors": "hall", "capacity": "hall", "initial": "hall",
		"modality": "office", "alarm": "hospital",
	}
	var usage error
	fs.Visit(func(f *flag.Flag) {
		own := ownConstructor[effScen]
		switch {
		case usage != nil:
		case effScen == "spec" && f.Name == "scenario":
			usage = fmt.Errorf("-workload replaces -scenario; drop -scenario %s", *scen)
		case scoped[f.Name] != "" && scoped[f.Name] != effScen:
			usage = fmt.Errorf("-%s applies only to -scenario %s (running %s)", f.Name, scoped[f.Name], effScen)
		case own != "" && (f.Name == "kind" || f.Name == "epsilon" || f.Name == "trace"):
			usage = fmt.Errorf("-%s applies only to builder-wired scenarios; %s", f.Name, own)
		case effScen == "office" && (f.Name == "record" || f.Name == "replay"):
			usage = fmt.Errorf("-%s: %s", f.Name, own)
		case effScen == "scale" && (f.Name == "flight" || f.Name == "flight-k"):
			usage = fmt.Errorf("-%s: the flight recorder is single-writer; scale runs a fleet on network.ShardedNet", f.Name)
		}
	})
	if usage != nil {
		return fail(usage)
	}
	if *initial > workload.MaxInitialOccupancy {
		return fail(fmt.Errorf("-initial %d is more than %d (one arrival per µs of the hall's one-second ramp)",
			*initial, workload.MaxInitialOccupancy))
	}

	var replaySrc workload.Source
	if *replayPath != "" {
		rt, err := workload.ReadFile(*replayPath)
		if err != nil {
			return fail(fmt.Errorf("-replay: %w", err))
		}
		if m := rt.Meta["scenario"]; m != "" && m != effScen {
			return fail(fmt.Errorf("-replay: trace was recorded from scenario %q, running %q", m, effScen))
		}
		// The fleet is sized by the largest object the trace names: bound
		// it before wiring, as a spec's objs= is bounded, or by -sensors.
		limit, bound := workload.ObjLimit, "the objs= bound of a workload spec"
		if effScen == "scale" {
			limit, bound = *sensors, "the -sensors fleet"
		}
		for _, ev := range rt.Events {
			if ev.Obj < 0 || ev.Obj >= limit {
				return fail(fmt.Errorf("-replay: trace names object %d, outside [0, %d) (%s)", ev.Obj, limit, bound))
			}
		}
		replaySrc = workload.EventSource(rt.Events)
		hz = rt.Horizon // byte-identity needs the recorded horizon
	}
	rc := scenario.Run{
		Seed: *seed, Kind: kind, Delay: delay, Epsilon: dur(*epsilon), Horizon: hz,
		Workload: replaySrc, Record: *tracePath != "", Obs: reg, Faults: plan, FlightPerProc: perProc,
	}

	var (
		res core.Results
		// describe returns the report's scenario lines, read after the run.
		describe func() string
		// harness is the scenario's, kept for the run record and the
		// flight-dump export.
		harness *core.Harness
		// recorded is the run's materialized workload, written out when
		// -record is set.
		recorded []workload.Event
		recSeed  = *seed
	)
	switch effScen {
	case "spec":
		sp, err := workload.ParseSpecFile(*specPath)
		if err != nil {
			return fail(fmt.Errorf("-workload: %w", err))
		}
		if *replayPath == "" {
			hz = sp.Horizon
		} else {
			sp.Horizon = hz
		}
		sr, err := scenario.NewSpecRun(scenario.SpecConfig{Run: rc, Spec: sp})
		if err != nil {
			return fail(err)
		}
		harness, recorded, recSeed = sr.Harness, sr.Events, sp.Seed
		describe = func() string {
			return fmt.Sprintf("spec: %s — %d generators over %d objects, %d workload events\npredicate: %s",
				*specPath, len(sp.Gens), len(sr.Objects), len(sr.Events), sp.Predicate)
		}
	case "hall":
		hl := scenario.NewHall(scenario.HallConfig{
			Run: rc, Doors: *doors, Capacity: *capacity, InitialOccupancy: *initial,
		})
		harness, recorded = hl.Harness, hl.Events
		describe = func() string { return fmt.Sprintf("predicate: %s", scenario.OccupancyPredicate(*capacity)) }
	case "hospital":
		hp := scenario.NewHospital(scenario.HospitalConfig{Run: rc, Alarm: *alarm})
		harness, recorded = hp.Harness, hp.Events
		describe = func() string { return fmt.Sprintf("alarm: %s, raised: %d", *alarm, hp.Alarms) }
	case "habitat":
		hb := scenario.NewHabitat(scenario.HabitatConfig{Run: rc})
		harness, recorded = hb.Harness, hb.Events
		describe = func() string { return "predicate: herd congregation (≥2 waterholes occupied)" }
	case "proximity":
		px := scenario.NewProximity(scenario.ProximityConfig{Run: rc})
		harness, recorded = px.Harness, px.Events
		describe = func() string {
			return fmt.Sprintf("predicate: visitor within %gm of patient; alarms: %d", px.Cfg.Radius, px.Alarms)
		}
	case "office":
		of := scenario.NewOffice(scenario.OfficeConfig{
			Seed: *seed, Rooms: 1, Modality: mod, Delay: delay,
			Horizon: hz, Actuate: true, Obs: reg, Faults: plan, FlightPerProc: perProc,
		})
		harness = of.Harness
		describe = func() string { return fmt.Sprintf("modality: %v, thermostat actuations: %d", mod, of.Actuations) }
	case "scale":
		sc := scenario.NewScale(scenario.ScaleConfig{
			Seed: *seed, N: *sensors, Shards: *shards, Workers: *workers,
			Delay: delay, Horizon: hz, CheckerFanout: *checkerFan, Workload: replaySrc,
			Faults: plan, Obs: reg,
		})
		harness, recorded = sc.Harness, sc.Harness.Events
		describe = func() string {
			s := fmt.Sprintf("fleet: %d sensors over %d shard(s), %d epochs, %d cross-shard msgs, %.1f KB clock state",
				*sensors, *shards, res.Epochs, res.CrossSent, float64(res.ClockBytes)/1024)
			if tree := sc.Harness.Tree; tree != nil {
				s += fmt.Sprintf("\nchecker tree: %d regions, %d batches (%d triples, %d coalesced), %.1f KB sync wire",
					tree.Fanout(), tree.Stat.Batches, tree.Stat.BatchTriples,
					tree.Stat.Coalesced, float64(tree.Stat.WireBytes)/1024)
			}
			return s
		}
	default:
		return fail(fmt.Errorf("unknown scenario %q", *scen))
	}
	res = harness.Run()

	fmt.Fprintf(stdout, "scenario: %s  clocks: %v  Δ: %v  seed: %d  horizon: %v\n",
		effScen, harness.Cfg.Kind, *delta, recSeed, hz)
	fmt.Fprintln(stdout, describe())
	fmt.Fprintf(stdout, "true occurrences:     %d\n", len(res.Truth))
	fmt.Fprintf(stdout, "detected occurrences: %d (%d borderline)\n",
		len(res.Occurrences), countBorderline(res.Occurrences))
	fmt.Fprintf(stdout, "confusion:            %v\n", res.Confusion)
	fmt.Fprintf(stdout, "recall %.3f  precision %.3f  accuracy %.3f  borderline-coverage %.3f\n",
		res.Confusion.Recall(), res.Confusion.Precision(),
		res.Confusion.Accuracy(), res.Confusion.BorderlineCoverage())
	fmt.Fprintf(stdout, "network: %d msgs sent, %d delivered, %d dropped, %d bytes\n",
		res.Net.Sent, res.Net.Delivered, res.Net.Dropped, res.Net.Bytes)
	if plan != nil {
		fmt.Fprintf(stdout, "faults: plan %q\n", plan)
	}

	var snap *obs.Snapshot
	if reg != nil {
		s := reg.Snapshot()
		snap = &s
		if err := writeFile(*metricsPath, snap.WriteJSON); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "metrics: snapshot written to %s\n", *metricsPath)
		if err := snap.WriteTable(stderr); err != nil {
			return fail(err)
		}
	}

	if rc.Record {
		rec := harness.RunRecord()
		rec.Metrics = snap // embed the run's metrics when both are requested
		if err := writeFile(*tracePath, rec.EncodeJSONL); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace: %d records written to %s\n", len(rec.Events), *tracePath)
	}

	if *recordPath != "" {
		wt := &workload.Trace{
			Horizon: hz,
			Meta: map[string]string{
				"scenario": effScen,
				"seed":     fmt.Sprint(recSeed),
			},
			Events: recorded,
		}
		if err := wt.WriteFile(*recordPath); err != nil {
			return fail(fmt.Errorf("-record: %w", err))
		}
		fmt.Fprintf(stdout, "workload: %d events recorded to %s\n", len(recorded), *recordPath)
	}

	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			return fail(err)
		}
		for i, d := range harness.Dumps {
			name := fmt.Sprintf("%03d-%s.dump.jsonl", i, sanitizeTrigger(d.Trigger))
			if err := writeFile(filepath.Join(*flightDir, name), d.EncodeJSONL); err != nil {
				return fail(err)
			}
		}
		fmt.Fprintf(stdout, "flight: %d dumps written to %s\n", len(harness.Dumps), *flightDir)
	}
	return 0
}

// writeFile creates path and writes it with encode.
func writeFile(path string, encode func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sanitizeTrigger maps a dump trigger like "fault:crash(p1)" to a
// filename-safe slug like "fault-crash-p1".
func sanitizeTrigger(s string) string {
	var sb strings.Builder
	lastDash := false
	for _, r := range s {
		ok := r == '.' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		switch {
		case ok:
			sb.WriteRune(r)
			lastDash = false
		case !lastDash && sb.Len() > 0:
			sb.WriteByte('-')
			lastDash = true
		}
	}
	return strings.TrimSuffix(sb.String(), "-")
}

func parseKind(s string) (core.ClockKind, error) {
	switch s {
	case "vector":
		return core.VectorStrobe, nil
	case "scalar":
		return core.ScalarStrobe, nil
	case "physical":
		return core.PhysicalReport, nil
	case "diff":
		return core.DiffVectorStrobe, nil
	}
	return 0, fmt.Errorf("unknown clock kind %q", s)
}

func parseModality(s string) (predicate.Modality, error) {
	switch s {
	case "instantaneously":
		return predicate.Instantaneously, nil
	case "possibly":
		return predicate.Possibly, nil
	case "definitely":
		return predicate.Definitely, nil
	}
	return 0, fmt.Errorf("unknown modality %q", s)
}

func dur(d time.Duration) sim.Duration { return sim.Duration(d / time.Microsecond) }

func countBorderline(occ []core.Occurrence) int {
	n := 0
	for _, o := range occ {
		if o.Borderline {
			n++
		}
	}
	return n
}
