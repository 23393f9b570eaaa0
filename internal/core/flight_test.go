package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// saveDumpsOnFailure writes h's flight dumps into $FLIGHT_DUMP_DIR when
// the test fails, so CI can upload the causal context of the failure as
// an artifact. A run without the variable (every local run) is a no-op.
func saveDumpsOnFailure(t *testing.T, h *Harness) {
	t.Helper()
	t.Cleanup(func() {
		dir := os.Getenv("FLIGHT_DUMP_DIR")
		if dir == "" || !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("flight dump dir: %v", err)
			return
		}
		base := strings.NewReplacer("/", "-", " ", "-").Replace(t.Name())
		for i, d := range h.Dumps {
			var buf bytes.Buffer
			if err := d.EncodeJSONL(&buf); err != nil {
				t.Logf("flight dump encode: %v", err)
				continue
			}
			name := fmt.Sprintf("%s-%02d.dump.jsonl", base, i)
			if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
				t.Logf("flight dump write: %v", err)
			}
		}
	})
}

// flightHarness runs the pulse workload with a crash/recovery of sensor
// 1 and the flight recorder attached (obs too, so dumps embed metrics).
func flightHarness(kind ClockKind) *Harness {
	n := 3
	pred := ConjunctiveGlobal(predicate.MustParse("p@0 == 1"), n)
	h := NewHarness(HarnessConfig{
		Seed: 11, N: n, Kind: kind,
		Delay: sim.NewDeltaBounded(20 * sim.Millisecond),
		Pred:  pred, Modality: predicate.Instantaneously,
		Horizon: 60 * sim.Second,
		Faults: faults.NewPlan().
			Crash(1, 20*sim.Second).
			Recover(1, 30*sim.Second),
		Obs:    obs.NewRegistry(),
		Flight: flight.New(n+1, 128),
	})
	for i := 0; i < n; i++ {
		obj := h.World.AddObject("obj", nil)
		h.Bind(i, obj, "p", "p")
		h.Install(workload.Toggler{Seed: h.World.RNG().Uint64(), Obj: obj, Attr: "p", MeanHigh: 3 * sim.Second,
			MeanLow: 2 * sim.Second})
	}
	return h
}

func TestHarnessFlightDumpsOnFaultsAndDetections(t *testing.T) {
	for _, kind := range []ClockKind{VectorStrobe, ScalarStrobe, DiffVectorStrobe} {
		h := flightHarness(kind)
		saveDumpsOnFailure(t, h)
		h.Run()
		triggers := map[string]int{}
		for _, d := range h.Dumps {
			triggers[d.Trigger]++
		}
		if triggers["fault:crash(p1)"] != 1 || triggers["fault:recover(p1)"] != 1 {
			t.Fatalf("%v: fault triggers %v", kind, triggers)
		}
		if triggers["detect"] == 0 {
			t.Fatalf("%v: no detection dumps (triggers %v)", kind, triggers)
		}
		for _, d := range h.Dumps {
			if d.TimeBase != "virtual" {
				t.Fatalf("%v: dump time base %q", kind, d.TimeBase)
			}
			if d.Metrics == nil || d.Metrics.TimeBase != "virtual" {
				t.Fatalf("%v: dump %q did not embed the obs snapshot", kind, d.Trigger)
			}
			if issues := flight.BuildDAG(d).Validate(); len(issues) != 0 {
				t.Fatalf("%v: dump %q inconsistent: %v", kind, d.Trigger, issues)
			}
		}
		// A detection dump must carry a causal critical path ending at
		// the detect event.
		var detect *flight.Dump
		for _, d := range h.Dumps {
			if d.Trigger == "detect" {
				detect = d
				break
			}
		}
		g := flight.BuildDAG(detect)
		path := g.CriticalPath()
		if len(path) < 3 {
			t.Fatalf("%v: critical path too short: %v", kind, path)
		}
		if g.Events[path[len(path)-1]].Kind != "detect" {
			t.Fatalf("%v: path does not end at detect", kind)
		}
	}
}

func TestHarnessFlightCrashDumpSeesEpochBump(t *testing.T) {
	h := flightHarness(VectorStrobe)
	saveDumpsOnFailure(t, h)
	h.Run()
	// The final signal-free state: the last dump triggered at/after the
	// recovery must contain the Recover record with epoch 1, and later
	// sense events of p1 must carry epoch 1 stamps.
	h.SignalDump("end")
	last := h.Dumps[len(h.Dumps)-1]
	if last.Trigger != "signal:end" {
		t.Fatalf("trigger %q", last.Trigger)
	}
	var sawRecover, sawFreshSense bool
	for _, ev := range last.Events {
		if ev.Kind == "recover" && ev.Proc == 1 && ev.Epoch == 1 {
			sawRecover = true
		}
		if ev.Kind == "sense" && ev.Proc == 1 && ev.Epoch == 1 {
			sawFreshSense = true
		}
	}
	if !sawRecover && !sawFreshSense {
		t.Fatalf("no post-recovery epoch-1 events in final dump")
	}
}

func TestHarnessFlightDumpsDeterministic(t *testing.T) {
	encode := func() []byte {
		h := flightHarness(VectorStrobe)
		saveDumpsOnFailure(t, h)
		h.Run()
		var buf bytes.Buffer
		for _, d := range h.Dumps {
			d.Metrics = nil // obs spans include ring order, compare events only
			if err := d.EncodeJSONL(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatal("flight dumps differ across identical runs")
	}
}
