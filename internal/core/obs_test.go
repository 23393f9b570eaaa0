package core

import (
	"testing"

	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// runInstrumentedHall wires a tiny two-sensor harness with an obs
// registry and drives a couple of predicate flips.
func runInstrumentedHall(t *testing.T, kind ClockKind) (*obs.Registry, Results) {
	t.Helper()
	reg := obs.NewRegistry()
	h := NewHarness(HarnessConfig{
		Seed: 1, N: 2, Kind: kind,
		Delay:    sim.NewDeltaBounded(10 * sim.Millisecond),
		Pred:     predicate.MustParse("x@0 + x@1 > 1"),
		Modality: predicate.Instantaneously,
		Horizon:  2 * sim.Second,
		Obs:      reg,
	})
	a := h.World.AddObject("a", nil)
	b := h.World.AddObject("b", nil)
	h.Bind(0, a, "v", "x")
	h.Bind(1, b, "v", "x")
	h.Install(workload.Toggler{Seed: h.World.RNG().Uint64(), Obj: a, Attr: "v", MeanHigh: 200 * sim.Millisecond,
		MeanLow: 200 * sim.Millisecond})
	h.Install(workload.Toggler{Seed: h.World.RNG().Uint64(), Obj: b, Attr: "v", MeanHigh: 200 * sim.Millisecond,
		MeanLow: 200 * sim.Millisecond})
	return reg, h.Run()
}

func TestHarnessObsWiring(t *testing.T) {
	reg, res := runInstrumentedHall(t, VectorStrobe)
	snap := reg.Snapshot()
	if snap.TimeBase != "virtual" {
		t.Fatalf("time base %q", snap.TimeBase)
	}
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	gauges := map[string]obs.GaugeSnap{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g
	}

	// Engine collector: executed events must be visible and nonzero.
	if counters["sim.events.executed"] == 0 || counters["sim.events.scheduled"] == 0 {
		t.Fatalf("engine counters missing: %v", counters)
	}
	if counters["sim.events.scheduled"] < counters["sim.events.executed"] {
		t.Fatalf("scheduled %d < executed %d",
			counters["sim.events.scheduled"], counters["sim.events.executed"])
	}
	if gauges["sim.heap.depth"].Max == 0 {
		t.Fatal("heap depth watermark never raised")
	}

	// Network instruments must agree with the legacy Stats block.
	if counters["net.sent"] != res.Net.Sent {
		t.Fatalf("net.sent %d want %d", counters["net.sent"], res.Net.Sent)
	}
	if counters["net.delivered"] != res.Net.Delivered {
		t.Fatalf("net.delivered %d want %d", counters["net.delivered"], res.Net.Delivered)
	}
	if counters["net.bytes"] != res.Net.Bytes {
		t.Fatalf("net.bytes %d want %d", counters["net.bytes"], res.Net.Bytes)
	}
	var delayHist *obs.HistSnap
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "net.delay_us" {
			delayHist = &snap.Histograms[i]
		}
	}
	if delayHist == nil || int64(delayHist.Count) != res.Net.Sent-res.Net.Dropped {
		t.Fatalf("delay histogram %+v (sent %d dropped %d)",
			delayHist, res.Net.Sent, res.Net.Dropped)
	}
	if delayHist.Max > 10_000 { // Δ-bounded at 10 ms
		t.Fatalf("delay exceeds bound: %v", delayHist.Max)
	}

	// Checker instruments.
	if counters["checker.strobes_applied"] == 0 || counters["checker.pred_evals"] == 0 {
		t.Fatalf("checker counters missing: %v", counters)
	}
	if counters["checker.detections"] != int64(len(res.Occurrences)) {
		t.Fatalf("detections %d want %d",
			counters["checker.detections"], len(res.Occurrences))
	}

	// The harness run span must cover the virtual run.
	found := false
	for _, s := range snap.Spans {
		if s.Name == "harness.run" && s.End >= sim.Second {
			found = true
		}
	}
	if !found {
		t.Fatalf("no harness.run span: %+v", snap.Spans)
	}
}

func TestHarnessObsNilIsNoop(t *testing.T) {
	// The uninstrumented path must behave identically (determinism) and
	// not panic anywhere.
	_, res1 := runInstrumentedHall(t, VectorStrobe)
	h := NewHarness(HarnessConfig{
		Seed: 1, N: 2, Kind: VectorStrobe,
		Delay:    sim.NewDeltaBounded(10 * sim.Millisecond),
		Pred:     predicate.MustParse("x@0 + x@1 > 1"),
		Modality: predicate.Instantaneously,
		Horizon:  2 * sim.Second,
	})
	a := h.World.AddObject("a", nil)
	b := h.World.AddObject("b", nil)
	h.Bind(0, a, "v", "x")
	h.Bind(1, b, "v", "x")
	h.Install(workload.Toggler{Seed: h.World.RNG().Uint64(), Obj: a, Attr: "v", MeanHigh: 200 * sim.Millisecond,
		MeanLow: 200 * sim.Millisecond})
	h.Install(workload.Toggler{Seed: h.World.RNG().Uint64(), Obj: b, Attr: "v", MeanHigh: 200 * sim.Millisecond,
		MeanLow: 200 * sim.Millisecond})
	res2 := h.Run()
	if res1.Net.Sent != res2.Net.Sent || len(res1.Occurrences) != len(res2.Occurrences) {
		t.Fatalf("instrumentation changed behaviour: %+v vs %+v", res1.Net, res2.Net)
	}
}

func TestPhysicalCheckerObsQueue(t *testing.T) {
	reg, _ := runInstrumentedHall(t, PhysicalReport)
	snap := reg.Snapshot()
	var q *obs.GaugeSnap
	for i := range snap.Gauges {
		if snap.Gauges[i].Name == "checker.queue_depth" {
			q = &snap.Gauges[i]
		}
	}
	if q == nil || q.Max == 0 {
		t.Fatalf("reorder queue gauge not recorded: %+v", snap.Gauges)
	}
	if q.Value != 0 {
		t.Fatalf("queue not drained at finish: %+v", q)
	}
}
