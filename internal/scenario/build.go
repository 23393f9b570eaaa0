package scenario

import (
	"fmt"
	"sort"

	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// Run holds the run fields every builder-wired scenario (hall, hospital,
// habitat, proximity, spec) shares.
type Run struct {
	Seed    uint64
	Kind    core.ClockKind
	Delay   sim.DelayModel
	Epsilon sim.Duration // PhysicalReport only
	Horizon sim.Time
	// Workload overrides the scenario's default generator (e.g. a
	// replayed trace); nil draws the default from Seed.
	Workload workload.Source
	// Record keeps the run record (core.Harness.RunRecord), for
	// cmd/tracedump.
	Record bool
	// Obs, if non-nil, receives runtime metrics (see core.HarnessConfig).
	Obs *obs.Registry
	// Faults, if non-nil, is the fault plan (see core.HarnessConfig).
	Faults *faults.Plan
	// FlightPerProc, when positive, attaches a causal flight recorder
	// keeping the last FlightPerProc events per process (sensors plus
	// checker); trigger-scoped dumps land in Harness.Dumps.
	FlightPerProc int
}

// Wired is a builder-wired scenario, ready to Run.
type Wired struct {
	Harness *core.Harness
	// Objects[i] is the world object sensed by sensor i.
	Objects []int
	// Events is the materialized workload driving the run — the stream a
	// recorder captures, available before Run for encoding.
	Events []workload.Event
}

// Run executes the scenario.
func (w *Wired) Run() core.Results { return w.Harness.Run() }

// build wires a scenario from its parts: the workload (r.Workload, or
// src when that is nil) materialized to the horizon, a fleet of one
// sensor per world object — at least n, and as many as the stream
// reaches — each binding every attribute its object's events carry
// under its own name, and pred checked Instantaneously over them. The
// stream is pumped into the world as one chained pump. A stream that
// touches a negative object panics: neither decoded traces nor parsed
// specs hold one.
func build(r Run, pred predicate.Cond, n int, src workload.Source) Wired {
	if r.Workload != nil {
		src = r.Workload
	}
	evs := src.Events(r.Horizon)
	attrs := make(map[int]map[string]bool)
	for _, ev := range evs {
		if ev.Obj < 0 {
			panic(fmt.Sprintf("scenario: workload touches negative object %d", ev.Obj))
		}
		n = max(n, ev.Obj+1)
		if attrs[ev.Obj] == nil {
			attrs[ev.Obj] = map[string]bool{}
		}
		attrs[ev.Obj][ev.Attr] = true
	}
	n = max(n, 1)
	if r.Delay == nil {
		r.Delay = sim.NewDeltaBounded(100 * sim.Millisecond)
	}
	h := core.NewHarness(core.HarnessConfig{
		Seed: r.Seed, N: n, Kind: r.Kind, Delay: r.Delay, Epsilon: r.Epsilon, Horizon: r.Horizon,
		Pred: pred, Modality: predicate.Instantaneously,
		Record: r.Record, Obs: r.Obs, Faults: r.Faults, Flight: flightFor(r.FlightPerProc, n),
	})
	w := Wired{Harness: h, Events: evs}
	for i := 0; i < n; i++ {
		obj := h.World.AddObject(fmt.Sprintf("obj-%d", i), nil)
		w.Objects = append(w.Objects, obj)
		names := make([]string, 0, len(attrs[i]))
		for a := range attrs[i] {
			names = append(names, a)
		}
		sort.Strings(names) // deterministic binding order
		for _, a := range names {
			h.Bind(i, obj, a, a)
		}
	}
	workload.Install(h.Eng, h.World, evs)
	return w
}

// flightFor builds a flight recorder for n sensors plus the checker
// when a scenario asks for per-process capacity k; zero disables it.
func flightFor(k, n int) *flight.Recorder {
	if k <= 0 {
		return nil
	}
	return flight.New(n+1, k)
}
