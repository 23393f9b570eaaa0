// Command pervasim runs one of the paper's application scenarios on the
// deterministic simulator and prints a detection report.
//
// Usage:
//
//	pervasim -scenario hall -doors 4 -delta 100ms -kind vector
//	pervasim -scenario office -modality definitely
//	pervasim -scenario habitat -horizon 1h
//	pervasim -scenario hospital -alarm ward
//	pervasim -scenario hall -trace run.json   # write a JSON event trace
//	pervasim -scenario hall -trace run.jsonl  # same, streaming JSONL form
//	pervasim -scenario hall -metrics m.json   # runtime metrics: JSON file
//	                                          # + table on stderr
//	pervasim -scenario hall -faults 'crash(1,20s);recover(1,40s)'
//	pervasim -scenario hall -flight dumps/    # flight-recorder dumps (JSONL)
//	pervasim -scenario hall -pprof localhost:6060
//	pervasim -scenario hall -record run.pvwl  # record the workload trace
//	pervasim -scenario hall -replay run.pvwl  # replay it byte-identically
//	pervasim -workload spec.txt               # compose generators from a spec
package main

import (
	"flag"
	"fmt"
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
	"pervasive/internal/trace"
	"pervasive/internal/workload"
)

func main() {
	var (
		scen     = flag.String("scenario", "hall", "hall | office | hospital | habitat | proximity | scale")
		kindName = flag.String("kind", "vector", "vector | scalar | physical | diff")
		delta    = flag.Duration("delta", 100*time.Millisecond, "message delay bound Δ")
		seed     = flag.Uint64("seed", 1, "random seed")
		horizon  = flag.Duration("horizon", 2*time.Minute, "simulated duration")
		doors    = flag.Int("doors", 4, "hall: number of doors")
		capacity = flag.Int("capacity", 200, "hall: room capacity")
		initial  = flag.Int("initial", 195, "hall: initial occupancy")
		modality = flag.String("modality", "instantaneously",
			"office: instantaneously | possibly | definitely")
		alarm       = flag.String("alarm", "crowding", "hospital: crowding | ward")
		epsilon     = flag.Duration("epsilon", time.Millisecond, "physical: sync skew bound ε")
		tracePath   = flag.String("trace", "", "hall: write JSON event trace to this file (.jsonl for streaming form)")
		metricsPath = flag.String("metrics", "", "write a runtime-metrics JSON snapshot to this file and a table to stderr")
		faultsSpec  = flag.String("faults", "", "fault plan, e.g. 'crash(1,20s);recover(1,40s);partition(0.1|2,10s,30s)'")
		flightDir   = flag.String("flight", "", "attach the flight recorder; write trigger-scoped dumps (JSONL) into this directory")
		flightK     = flag.Int("flight-k", flight.DefaultPerProc, "flight recorder capacity: last K events kept per process")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
		sensors     = flag.Int("sensors", 1024, "scale: fleet size")
		shards      = flag.Int("shards", 1, "scale: spatial shard count for the parallel kernel")
		workers     = flag.Int("workers", 1, "scale: >1 runs every shard of an epoch on its own goroutine, else one after another (output identical at any setting)")
		checkerFan  = flag.Int("checker-fanout", 0, "scale: regional checker-tree aggregators (<=1 runs the flat checker)")
		specPath    = flag.String("workload", "", "run a workload spec file on the generic spec scenario (replaces -scenario)")
		recordPath  = flag.String("record", "", "record the run's workload to this trace file (hall, hospital, scale, spec)")
		replayPath  = flag.String("replay", "", "replay a recorded workload trace; its horizon replaces -horizon")
	)
	flag.Parse()

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("-pprof: %w", err))
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}

	kind, err := parseKind(*kindName)
	if err != nil {
		fatal(err)
	}
	mod, err := parseModality(*modality)
	if err != nil {
		fatal(err)
	}
	var plan *faults.Plan
	if *faultsSpec != "" {
		if plan, err = faults.Parse(*faultsSpec); err != nil {
			fatal(fmt.Errorf("-faults: %w", err))
		}
	}
	perProc := 0 // 0 keeps the flight recorder detached
	if *flightDir != "" {
		perProc = *flightK
	}
	// installFaults arms the plan on the wired scenario before it runs,
	// and keeps the harness in reach for the flight-dump export below.
	var harness *core.Harness
	installFaults := func(h *core.Harness) {
		harness = h
		if plan != nil {
			checkFaults(plan, len(h.Sensors))
			h.InstallFaults(plan)
		}
	}
	delay := sim.NewDeltaBounded(dur(*delta))
	hz := dur(*horizon)

	var reg *obs.Registry // nil keeps every instrumented path a no-op
	if *metricsPath != "" {
		reg = obs.NewRegistry()
	}

	// Scenario-scoped flags fail loudly when set for the wrong scenario:
	// a silently ignored -sensors or -doors reads as a run that honored
	// it. flag.Visit only sees flags the user actually set, so defaults
	// never trip this.
	effScen := *scen
	if *specPath != "" {
		effScen = "spec"
	}
	scoped := map[string]string{
		"sensors": "scale", "shards": "scale", "workers": "scale", "checker-fanout": "scale",
		"doors": "hall", "capacity": "hall", "initial": "hall", "trace": "hall",
		"modality": "office", "alarm": "hospital",
	}
	flag.Visit(func(f *flag.Flag) {
		if effScen == "spec" && f.Name == "scenario" {
			fatal(fmt.Errorf("-workload replaces -scenario; drop -scenario %s", *scen))
		}
		if want, ok := scoped[f.Name]; ok && effScen != want {
			fatal(fmt.Errorf("-%s applies only to -scenario %s (running %s)", f.Name, want, effScen))
		}
	})

	var replaySrc workload.Source
	if *replayPath != "" {
		rt, err := workload.ReadFile(*replayPath)
		if err != nil {
			fatal(fmt.Errorf("-replay: %w", err))
		}
		if m := rt.Meta["scenario"]; m != "" && m != effScen {
			fatal(fmt.Errorf("-replay: trace was recorded from scenario %q, running %q", m, effScen))
		}
		replaySrc = workload.EventSource(rt.Events)
		hz = rt.Horizon // byte-identity needs the recorded horizon
	}

	switch effScen {
	case "hall", "hospital", "scale", "spec":
	default:
		if *replayPath != "" || *recordPath != "" {
			fatal(fmt.Errorf("-record/-replay support hall, hospital, scale and -workload runs; scenario %s has no materialized workload", effScen))
		}
	}

	var (
		res   core.Results
		extra string
		tr    *trace.Trace
		// recorded is the run's materialized workload (scenarios that
		// expose one), written out when -record is set.
		recorded []workload.Event
		recSeed  = *seed
	)
	switch effScen {
	case "spec":
		sp, err := workload.ParseSpecFile(*specPath)
		if err != nil {
			fatal(fmt.Errorf("-workload: %w", err))
		}
		if *replayPath == "" {
			hz = sp.Horizon
		} else {
			sp.Horizon = hz
		}
		sr, err := scenario.NewSpecRun(scenario.SpecConfig{
			Spec: sp, Workload: replaySrc, Kind: kind, Delay: delay,
			Epsilon: dur(*epsilon), Obs: reg, FlightPerProc: perProc,
		})
		if err != nil {
			fatal(err)
		}
		installFaults(sr.Harness)
		res = sr.Run()
		recorded, recSeed = sr.Events, sp.Seed
		extra = fmt.Sprintf("spec: %s — %d generators over %d objects, %d workload events\npredicate: %s",
			*specPath, len(sp.Gens), len(sr.Objects), len(sr.Events), sp.Predicate)
	case "scale":
		checkFaults(plan, *sensors)
		sc := scenario.NewScale(scenario.ScaleConfig{
			Seed: *seed, N: *sensors, Shards: *shards, Workers: *workers,
			Delay: delay, Horizon: hz, CheckerFanout: *checkerFan, Workload: replaySrc,
			Faults: plan, Obs: reg,
		})
		recorded = sc.Harness.Events
		sr := sc.Run()
		res = sr.Results
		extra = fmt.Sprintf("fleet: %d sensors over %d shard(s), %d epochs, %d cross-shard msgs, %.1f KB clock state",
			*sensors, *shards, sr.Epochs, sr.CrossSent, float64(sr.ClockBytes)/1024)
		if tree := sc.Harness.Tree; tree != nil {
			extra += fmt.Sprintf("\nchecker tree: %d regions, %d batches (%d triples, %d coalesced), %.1f KB sync wire",
				tree.Fanout(), tree.Stat.Batches, tree.Stat.BatchTriples,
				tree.Stat.Coalesced, float64(tree.Stat.WireBytes)/1024)
		}
	case "hall":
		cfg := scenario.HallConfig{
			Seed: *seed, Doors: *doors, Capacity: *capacity,
			InitialOccupancy: *initial, Kind: kind, Delay: delay,
			Epsilon: dur(*epsilon), Horizon: hz, Obs: reg, FlightPerProc: perProc,
			Workload: replaySrc,
		}
		if *tracePath != "" {
			tr = trace.New(*doors)
			cfg.Trace = tr
		}
		hl := scenario.NewHall(cfg)
		recorded = hl.Events
		installFaults(hl.Harness)
		res = hl.Run()
		extra = fmt.Sprintf("predicate: %s", scenario.OccupancyPredicate(*capacity))
	case "office":
		of := scenario.NewOffice(scenario.OfficeConfig{
			Seed: *seed, Rooms: 1, Modality: mod, Delay: delay,
			Horizon: hz, Actuate: true, Obs: reg, FlightPerProc: perProc,
		})
		installFaults(of.Harness)
		res = of.Run()
		extra = fmt.Sprintf("modality: %v, thermostat actuations: %d", mod, of.Actuations)
	case "hospital":
		hp := scenario.NewHospital(scenario.HospitalConfig{
			Seed: *seed, Alarm: *alarm, Kind: kind, Delay: delay, Horizon: hz,
			Obs: reg, FlightPerProc: perProc, Workload: replaySrc,
		})
		recorded = hp.Events
		installFaults(hp.Harness)
		res = hp.Run()
		extra = fmt.Sprintf("alarm: %s, raised: %d", *alarm, hp.Alarms)
	case "habitat":
		hb := scenario.NewHabitat(scenario.HabitatConfig{
			Seed: *seed, Kind: kind, Delay: delay, Horizon: hz, Obs: reg, FlightPerProc: perProc,
		})
		installFaults(hb.Harness)
		res = hb.Run()
		extra = "predicate: herd congregation (≥2 waterholes occupied)"
	case "proximity":
		px := scenario.NewProximity(scenario.ProximityConfig{
			Seed: *seed, Kind: kind, Delay: delay, Horizon: hz, Obs: reg, FlightPerProc: perProc,
		})
		installFaults(px.Harness)
		res = px.Run()
		extra = fmt.Sprintf("predicate: visitor within %gm of patient; alarms: %d",
			px.Cfg.Radius, px.Alarms)
	default:
		fatal(fmt.Errorf("unknown scenario %q", *scen))
	}

	fmt.Printf("scenario: %s  clocks: %v  Δ: %v  seed: %d  horizon: %v\n",
		effScen, kind, *delta, recSeed, hz)
	if extra != "" {
		fmt.Println(extra)
	}
	fmt.Printf("true occurrences:     %d\n", len(res.Truth))
	fmt.Printf("detected occurrences: %d (%d borderline)\n",
		len(res.Occurrences), countBorderline(res.Occurrences))
	fmt.Printf("confusion:            %v\n", res.Confusion)
	fmt.Printf("recall %.3f  precision %.3f  accuracy %.3f  borderline-coverage %.3f\n",
		res.Confusion.Recall(), res.Confusion.Precision(),
		res.Confusion.Accuracy(), res.Confusion.BorderlineCoverage())
	fmt.Printf("network: %d msgs sent, %d delivered, %d dropped, %d bytes\n",
		res.Net.Sent, res.Net.Delivered, res.Net.Dropped, res.Net.Bytes)
	if plan != nil {
		fmt.Printf("faults: plan %q\n", plan)
	}

	var snap *obs.Snapshot
	if reg != nil {
		s := reg.Snapshot()
		snap = &s
		f, err := os.Create(*metricsPath)
		if err != nil {
			fatal(err)
		}
		if err := snap.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics: snapshot written to %s\n", *metricsPath)
		if err := snap.WriteTable(os.Stderr); err != nil {
			fatal(err)
		}
	}

	if tr != nil {
		tr.Metrics = snap // embed the run's metrics when both are requested
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if strings.HasSuffix(*tracePath, ".jsonl") {
			err = tr.EncodeJSONL(f)
		} else {
			err = tr.EncodeJSON(f)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d records written to %s\n", tr.Len(), *tracePath)
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
			fatal(fmt.Errorf("-record: %w", err))
		}
		fmt.Printf("workload: %d events recorded to %s\n", len(recorded), *recordPath)
	}

	if *flightDir != "" && harness != nil {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fatal(err)
		}
		for i, d := range harness.Dumps {
			name := fmt.Sprintf("%03d-%s.dump.jsonl", i, sanitizeTrigger(d.Trigger))
			f, err := os.Create(filepath.Join(*flightDir, name))
			if err != nil {
				fatal(err)
			}
			if err := d.EncodeJSONL(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("flight: %d dumps written to %s\n", len(harness.Dumps), *flightDir)
	}
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

// checkFaults exits 2 when the plan names a process the scenario's fleet
// of sensors does not have.
func checkFaults(plan *faults.Plan, sensors int) {
	if err := plan.Check(sensors); err != nil {
		fatal(fmt.Errorf("-faults: %w", err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pervasim:", err)
	os.Exit(2)
}
