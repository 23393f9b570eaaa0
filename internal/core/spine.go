package core

import (
	"strconv"

	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
	"pervasive/internal/world"
)

// The run spine: everything Harness and ShardedHarness wire the same way,
// written once (ScheduleFaults and FinishAndScore serve the live engine
// too). What the two stacks do not share is the kernel and the transport's
// RNG/priority discipline (see DESIGN.md §1.10).

// finiteBound is the delay bound Tol and the Slack default build on: the
// model's own bound, or 100 ms when it has none.
func finiteBound(d sim.DelayModel) sim.Duration {
	if b := d.Bound(); b != sim.Never {
		return b
	}
	return 100 * sim.Millisecond
}

// ScheduleFaults compiles plan, hands the injector to the transport through
// setFaults, and schedules every crash/recover transition through at on its
// target sensor's own executor, driving Sensor.Crash/Rejoin there: the
// sensor's engine on either DES stack, its node goroutine on the live one.
// Each transition bumps faults.crashes / faults.recoveries and each outage
// is one faults.down.pN span in reg (a process's transitions all run where
// its other steps run, so each span has a single writer; the registry itself
// is safe for concurrent executors). fl, when non-nil, also gets a
// Crash/Recover record and a dump per transition. A nil or empty plan
// installs nothing and returns nil. Crash/recover events must target
// sensors — the checker P0 is the one process the model keeps up — though
// partitions may isolate it (index len(sensors)); an out-of-range process
// panics with faults.Plan.Check's error, checked before anything is sized
// by the plan's largest index. Entry points call Check first and exit.
func ScheduleFaults(plan *faults.Plan, sensors []*Sensor, setFaults func(*faults.Injector),
	at func(proc int, t sim.Time, fn sim.Handler), reg *obs.Registry, fl *flight.Recorder) *faults.Injector {

	if plan.Empty() {
		return nil
	}
	if err := plan.Check(len(sensors)); err != nil {
		panic("core: " + err.Error())
	}
	inj := faults.NewInjector(plan)
	setFaults(inj)
	crashes := reg.Counter("faults.crashes")
	recoveries := reg.Counter("faults.recoveries")
	spans := make([]obs.Span, plan.MaxProc()+1) // indexed by proc; sized by the plan, not the fleet
	for _, ev := range inj.Transitions() {
		s := sensors[ev.Proc]
		tag := "p" + strconv.Itoa(ev.Proc)
		at(ev.Proc, ev.At, func(now sim.Time) {
			var kind flight.Kind
			switch ev.Kind {
			case faults.Crash:
				s.Crash()
				crashes.Inc()
				spans[ev.Proc] = reg.StartSpanAt("faults.down."+tag, now)
				kind = flight.Crash
			case faults.Recover:
				s.Rejoin()
				recoveries.Inc()
				spans[ev.Proc].EndAt(now)
				spans[ev.Proc] = obs.Span{}
				kind = flight.Recover
			}
			if fl != nil {
				fl.Record(flight.Rec{
					Kind: kind, Proc: int32(ev.Proc),
					Peer: flight.NoPeer, Epoch: int32(s.Epoch()), At: now,
				})
				fl.TriggerDump("fault:"+kind.String()+"("+tag+")", now)
			}
		})
	}
	return inj
}

// Detector is the checker surface the spine finishes and scores. Every
// checker shape — flat strobe, physical, conjunctive, and the checker
// tree — satisfies it.
type Detector interface {
	Finish(horizon sim.Time)
	Occurrences() []Occurrence
	Markers() []sim.Time
}

// FinishAndScore closes det at res.Horizon, moves its clipped occurrences
// and race markers into res, and — when truth has a predicate — scores
// them against the world log with tolerance tol.
func FinishAndScore(res *Results, det Detector, log []world.Event, truth world.Oracle, tol sim.Duration) {
	det.Finish(res.Horizon)
	res.Occurrences = clipToHorizon(det.Occurrences(), res.Horizon)
	res.Markers = det.Markers()
	if truth.Pred != nil {
		res.Truth = truth.Intervals(log, res.Horizon)
		res.Confusion = Score(res.Occurrences, res.Truth, res.Markers, tol, res.Horizon)
	}
}
