package core

import (
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/workload"
)

func TestPhysicalCheckerReplaysInTimestampOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	pred := predicate.MustParse("x@0 == 1 && x@1 == 1")
	c := NewPhysicalChecker(eng, 2, pred, 50)

	// Reports arrive out of order; timestamps tell the true story:
	// p0 up @100, p1 up @120, p0 down @140 → overlap [120,140).
	eng.At(200, func(now sim.Time) {
		c.OnReport(ReportMsg{Proc: 0, Seq: 2, Var: "x", Value: 0, TS: 140}, now)
	})
	eng.At(210, func(now sim.Time) {
		c.OnReport(ReportMsg{Proc: 0, Seq: 1, Var: "x", Value: 1, TS: 100}, now)
	})
	eng.At(220, func(now sim.Time) {
		c.OnReport(ReportMsg{Proc: 1, Seq: 1, Var: "x", Value: 1, TS: 120}, now)
	})
	eng.RunAll()
	c.Finish(1000)

	occ := c.Occurrences()
	if len(occ) != 1 {
		t.Fatalf("occurrences %v", occ)
	}
	if occ[0].Start != 120 || occ[0].End != 140 {
		t.Fatalf("occurrence %+v", occ[0])
	}
	if c.Reordered != 0 {
		t.Fatalf("buffered replay still reordered %d", c.Reordered)
	}
}

func TestPhysicalCheckerSkewFalseNegative(t *testing.T) {
	// The Mayo–Kearns race: true overlap shorter than the skew can vanish
	// under timestamp order. p0 true [100,110); p1 true [105,200): true
	// overlap 5µs. p0's clock is +20 fast, p1's −20 slow: reported p0
	// interval [120,130), p1 [85,180) — overlap survives here, so instead
	// make p1 rise *after* p0 falls in reported time:
	// p0 [100,110)+20 → [120,130); p1 rises 105−20 → 85 … overlap [120,130)
	// still there. Use opposite signs: p0 −20 → [80,90); p1 +20 → 125.
	eng := sim.NewEngine(1)
	pred := predicate.MustParse("x@0 == 1 && x@1 == 1")
	c := NewPhysicalChecker(eng, 2, pred, 100)
	send := func(at sim.Time, proc int, val float64, ts sim.Time) {
		eng.At(at, func(now sim.Time) {
			c.OnReport(ReportMsg{Proc: proc, Seq: int(at), Var: "x", Value: val, TS: ts}, now)
		})
	}
	// True: p0 [100,110), p1 [105,300). Clocks: p0 −20, p1 +20.
	send(101, 0, 1, 80)
	send(111, 0, 0, 90)
	send(106, 1, 1, 125)
	send(301, 1, 0, 320)
	eng.RunAll()
	c.Finish(1000)
	if len(c.Occurrences()) != 0 {
		t.Fatalf("expected a false negative under skew, got %v", c.Occurrences())
	}
}

func TestPhysicalCheckerEndToEnd(t *testing.T) {
	// Full harness: two pulse generators with long overlaps, tight ε; the
	// physical detector should catch nearly everything.
	h := NewHarness(HarnessConfig{
		Seed: 3, N: 2, Kind: PhysicalReport,
		Delay:    sim.NewDeltaBounded(5 * sim.Millisecond),
		Pred:     predicate.MustParse("x@0 == 1 && x@1 == 1"),
		Modality: predicate.Instantaneously,
		Epsilon:  200 * sim.Microsecond,
		Horizon:  20 * sim.Second,
	})
	a := h.World.AddObject("a", nil)
	b := h.World.AddObject("b", nil)
	h.Bind(0, a, "p", "x")
	h.Bind(1, b, "p", "x")
	h.Install(workload.Toggler{Seed: h.World.RNG().Uint64(), Obj: a, Attr: "p", MeanHigh: 300 * sim.Millisecond,
		MeanLow: 300 * sim.Millisecond})
	h.Install(workload.Toggler{Seed: h.World.RNG().Uint64(), Obj: b, Attr: "p", MeanHigh: 300 * sim.Millisecond,
		MeanLow: 300 * sim.Millisecond})
	res := h.Run()
	if len(res.Truth) < 5 {
		t.Fatalf("workload produced only %d true intervals", len(res.Truth))
	}
	if r := res.Confusion.Recall(); r < 0.9 {
		t.Fatalf("recall %.3f too low: %+v", r, res.Confusion)
	}
	if p := res.Confusion.Precision(); p < 0.9 {
		t.Fatalf("precision %.3f too low: %+v", p, res.Confusion)
	}
}

func TestEpsilonFleetPairwiseSkewBound(t *testing.T) {
	// Harness-level assumption check: the ε fleet keeps pairwise skew ≤ ε.
	fleet := clock.NewEpsilonFleet(stats.NewRNG(4), 32, 10*sim.Millisecond)
	for _, a := range fleet {
		for _, b := range fleet {
			skew := a.Read(999) - b.Read(999)
			if skew < -10*sim.Millisecond || skew > 10*sim.Millisecond {
				t.Fatalf("pairwise skew %v", skew)
			}
		}
	}
}

func TestPhysicalCheckerAccessors(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewPhysicalChecker(eng, 1, predicate.MustParse("x@0 > 0"), 10)
	c.OnReport(ReportMsg{Proc: 0, Seq: 1, Var: "x", Value: 1, TS: 5}, 5)
	eng.RunAll()
	c.Finish(100)
	if c.Applied() != 1 {
		t.Fatalf("applied %d", c.Applied())
	}
	// Reports after Finish are ignored.
	c.OnReport(ReportMsg{Proc: 0, Seq: 2, Var: "x", Value: 0, TS: 50}, 50)
	if c.Applied() != 1 {
		t.Fatal("report applied after Finish")
	}
	// Out-of-range proc dropped.
	c2 := NewPhysicalChecker(eng, 1, predicate.MustParse("x@0 > 0"), 10)
	c2.OnReport(ReportMsg{Proc: 9, Seq: 1, Var: "x", Value: 1, TS: 5}, 5)
	c2.Finish(100)
	if c2.Applied() != 0 {
		t.Fatal("bad proc applied")
	}
}

func TestClockKindString(t *testing.T) {
	if VectorStrobe.String() == "" || ScalarStrobe.String() == "" ||
		PhysicalReport.String() == "" {
		t.Fatal("empty kind names")
	}
}
