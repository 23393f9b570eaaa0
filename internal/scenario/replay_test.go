package scenario

import (
	"reflect"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// The record/replay byte-identity suite: a scenario run is recorded to a
// versioned trace, the trace round-trips through the codec, and a replay
// driven by the decoded stream must reproduce the original run exactly —
// same ground-truth log, same occurrences, same counters — on the
// single-heap engine and at every shard × worker count of the sharded
// engine. (The live leg, which can only promise value-stream identity,
// lives in internal/live.)

// roundTrip encodes evs into a trace and returns the decoded stream,
// failing the test on any codec divergence.
func roundTrip(t *testing.T, evs []workload.Event, horizon sim.Time, scenarioName string) []workload.Event {
	t.Helper()
	tr := &workload.Trace{
		Horizon: horizon,
		Meta:    map[string]string{"scenario": scenarioName},
		Events:  evs,
	}
	dec, err := workload.Decode(tr.Encode())
	if err != nil {
		t.Fatalf("trace round-trip: %v", err)
	}
	if dec.Meta["scenario"] != scenarioName || dec.Horizon != horizon {
		t.Fatalf("trace metadata mangled: %+v", dec)
	}
	if workload.Digest(dec.Events) != workload.Digest(evs) {
		t.Fatal("trace round-trip changed the event stream")
	}
	return dec.Events
}

func TestHallRecordReplayByteIdentical(t *testing.T) {
	cfg := HallConfig{
		Run:   Run{Seed: 1, Horizon: 2 * sim.Minute},
		Doors: 3, Capacity: 30, MeanArrival: 200 * sim.Millisecond,
		MeanStay: 10 * sim.Second, InitialOccupancy: 20,
	}
	orig := NewHall(cfg)
	resA := orig.Run()
	logA := orig.Harness.World.Log()

	replayed := roundTrip(t, orig.Events, cfg.Horizon, "hall")
	cfg2 := cfg
	cfg2.Workload = workload.EventSource(replayed)
	rep := NewHall(cfg2)
	if workload.Digest(rep.Events) != workload.Digest(orig.Events) {
		t.Fatal("replay materialized a different stream")
	}
	resB := rep.Run()

	if logB := rep.Harness.World.Log(); !reflect.DeepEqual(logB, logA) {
		t.Fatalf("world log diverged: %d vs %d events", len(logB), len(logA))
	}
	if !reflect.DeepEqual(resB.Occurrences, resA.Occurrences) {
		t.Fatalf("occurrences diverged: %d vs %d", len(resB.Occurrences), len(resA.Occurrences))
	}
	if !reflect.DeepEqual(resB.Truth, resA.Truth) {
		t.Fatal("truth intervals diverged")
	}
	if resB.Confusion != resA.Confusion {
		t.Fatalf("confusion diverged: %+v vs %+v", resB.Confusion, resA.Confusion)
	}
	if !reflect.DeepEqual(resB.Net, resA.Net) {
		t.Fatalf("net stats diverged: %+v vs %+v", resB.Net, resA.Net)
	}
}

func TestHospitalRecordReplayByteIdentical(t *testing.T) {
	cfg := HospitalConfig{
		Run:          Run{Seed: 2, Horizon: sim.Minute},
		WaitingDoors: 2, WaitingCapacity: 8,
		MeanArrival: 300 * sim.Millisecond, MeanStay: 5 * sim.Second,
		WardMeanVisit: 4 * sim.Second,
	}
	orig := NewHospital(cfg)
	resA := orig.Run()
	logA := orig.Harness.World.Log()

	replayed := roundTrip(t, orig.Events, cfg.Horizon, "hospital")
	cfg2 := cfg
	cfg2.Workload = workload.EventSource(replayed)
	rep := NewHospital(cfg2)
	resB := rep.Run()

	if logB := rep.Harness.World.Log(); !reflect.DeepEqual(logB, logA) {
		t.Fatal("world log diverged")
	}
	if !reflect.DeepEqual(resB.Occurrences, resA.Occurrences) {
		t.Fatal("occurrences diverged")
	}
	if resB.Confusion != resA.Confusion {
		t.Fatal("confusion diverged")
	}
}

func TestScaleRecordReplayAcrossShardsAndWorkers(t *testing.T) {
	base := ScaleConfig{Seed: 3, N: 64, Shards: 1, Horizon: sim.Second}
	orig := NewScale(base)
	resA := orig.Run()
	linesA := orig.Harness.CounterLines()

	replayed := roundTrip(t, orig.Harness.Events, base.Horizon, "scale")
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Shards, cfg.Workers = shards, workers
			cfg.Workload = workload.EventSource(replayed)
			s := NewScale(cfg)
			res := s.Run()
			if !reflect.DeepEqual(res.Occurrences, resA.Occurrences) {
				t.Fatalf("shards=%d workers=%d: occurrences diverged (%d vs %d)",
					shards, workers, len(res.Occurrences), len(resA.Occurrences))
			}
			if !reflect.DeepEqual(res.Truth, resA.Truth) {
				t.Fatalf("shards=%d workers=%d: truth diverged", shards, workers)
			}
			if res.Confusion != resA.Confusion {
				t.Fatalf("shards=%d workers=%d: confusion diverged", shards, workers)
			}
			if lines := s.Harness.CounterLines(); !reflect.DeepEqual(lines, linesA) {
				t.Fatalf("shards=%d workers=%d: counters diverged:\n%v\nvs\n%v",
					shards, workers, lines, linesA)
			}
		}
	}
}

// TestHallOccupancyNeverNegative is the regression test for the old
// installTraffic, whose departures ignored occupancy entirely (the
// counter was dead state): at every instant of the ground-truth log,
// cumulative exits must not exceed cumulative entries.
func TestHallOccupancyNeverNegative(t *testing.T) {
	hl := NewHall(HallConfig{
		Run:   Run{Seed: 4, Horizon: sim.Minute},
		Doors: 4, Capacity: 25, MeanArrival: 100 * sim.Millisecond,
		MeanStay: 3 * sim.Second, InitialOccupancy: 15,
	})
	hl.Run()
	log := hl.Harness.World.Log()
	if len(log) == 0 {
		t.Fatal("no traffic")
	}
	var entered, left float64
	i := 0
	for i < len(log) {
		at := log[i].At
		for i < len(log) && log[i].At == at {
			ev := log[i]
			switch ev.Attr {
			case "x":
				entered += ev.New - ev.Old
			case "y":
				left += ev.New - ev.Old
			}
			i++
		}
		if left > entered {
			t.Fatalf("occupancy negative at t=%v: entered=%v left=%v", at, entered, left)
		}
	}
}

// TestHallDeparturesClampedToHorizon is the regression test for the old
// `now+stay <= Horizon` guard, which silently dropped departures landing
// past the horizon: every visitor now departs by the horizon, so entries
// and exits balance exactly at the end of the run.
func TestHallDeparturesClampedToHorizon(t *testing.T) {
	// MeanStay far beyond the horizon: under the old guard almost every
	// departure would have been dropped.
	hl := NewHall(HallConfig{
		Run:   Run{Seed: 5, Horizon: 30 * sim.Second},
		Doors: 3, Capacity: 10, MeanArrival: 500 * sim.Millisecond,
		MeanStay: 10 * sim.Minute, InitialOccupancy: 5,
	})
	hl.Run()
	w := hl.Harness.World
	var entered, left float64
	for _, door := range hl.Objects {
		entered += w.Get(door, "x")
		left += w.Get(door, "y")
	}
	if entered == 0 {
		t.Fatal("no arrivals")
	}
	if entered != left {
		t.Fatalf("departures dropped at horizon: entered=%v left=%v", entered, left)
	}
}
