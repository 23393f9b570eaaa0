package workload

import (
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/world"
)

// allGenerators enumerates one configured instance of every generator,
// for the cross-cutting determinism/ordering checks.
func allGenerators() map[string]Source {
	return map[string]Source{
		"toggler": TogglerFleet{Seed: 11, N: 16, Attr: "p",
			MeanHigh: 80 * sim.Millisecond, MeanLow: 120 * sim.Millisecond},
		"hall": HallTraffic{Seed: 12, Doors: 4,
			MeanArrival: 20 * sim.Millisecond, MeanStay: 400 * sim.Millisecond,
			InitialOccupancy: 10},
		"admissions": Admissions{Seed: 13, Doors: 3,
			MeanArrival: 30 * sim.Millisecond, MeanStay: 300 * sim.Millisecond,
			WardMeanVisit: 200 * sim.Millisecond},
		"diurnal": Diurnal{Seed: 14, Obj: 2, Attr: "p",
			MeanGap: 15 * sim.Millisecond, Amp: 0.9, Period: 700 * sim.Millisecond,
			Harmonics: 3, Phase: 1.1, Width: 10 * sim.Millisecond},
		"pareto": ParetoBursts{Seed: 15, Obj: 1, Attr: "p",
			MeanBurstGap: 150 * sim.Millisecond, Xm: 2, Alpha: 1.1,
			PulseGap: 5 * sim.Millisecond, Width: 4 * sim.Millisecond},
		"cohort": Cohort{Seed: 16, Objs: []int{0, 1, 2, 3}, Attr: "p",
			MeanGap: 60 * sim.Millisecond, Width: 25 * sim.Millisecond,
			Rho: 0.7, Lag: 10 * sim.Millisecond, Jitter: 5 * sim.Millisecond},
		"walk": MobilityWalk{Seed: 17, Obj: 5, W: 50, H: 30, Speed: 2,
			Tick: 40 * sim.Millisecond},
	}
}

func TestGeneratorsDeterministicAndCanonical(t *testing.T) {
	const horizon = 2 * sim.Second
	for name, g := range allGenerators() {
		a, b := g.Events(horizon), g.Events(horizon)
		if len(a) == 0 {
			t.Errorf("%s: produced no events", name)
			continue
		}
		if Digest(a) != Digest(b) {
			t.Errorf("%s: two materializations differ", name)
		}
		for i, ev := range a {
			if ev.At > horizon {
				t.Errorf("%s: event %d past horizon: %+v", name, i, ev)
				break
			}
			if i > 0 && compare(ev, a[i-1]) < 0 {
				t.Errorf("%s: events %d/%d out of canonical order", name, i-1, i)
				break
			}
		}
		// A longer horizon extends the stream without rewriting the prefix
		// (prefix property — what makes -horizon sweeps comparable).
		long := g.Events(2 * horizon)
		if len(long) < len(a) {
			t.Errorf("%s: longer horizon produced fewer events", name)
			continue
		}
		clipped := make([]Event, 0, len(a))
		for _, ev := range long {
			if ev.At <= horizon {
				clipped = append(clipped, ev)
			}
		}
		// Horizon-clamped falls/departures may move, so compare only the
		// strictly-interior prefix.
		interior := func(evs []Event) []Event {
			var out []Event
			for _, ev := range evs {
				if ev.At < horizon {
					out = append(out, ev)
				}
			}
			return out
		}
		ia, ic := interior(a), interior(clipped)
		if len(ia) > 0 && len(ic) >= len(ia) && Digest(ia) != Digest(ic[:len(ia)]) {
			t.Errorf("%s: horizon extension rewrote the interior prefix", name)
		}
	}
}

func TestTogglerFleetMatchesWorldToggler(t *testing.T) {
	// The fleet generator must reproduce the exact draw sequence of the
	// former per-sensor world.Toggler installation: one root fork per
	// object in index order, then InstallWith's alternation.
	const (
		n       = 8
		seed    = 99
		horizon = 3 * sim.Second
		hi      = 300 * sim.Millisecond
		lo      = 500 * sim.Millisecond
	)
	eng := sim.NewEngine(seed)
	w := world.New(eng)
	root := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		obj := w.AddObject("o", nil)
		world.Toggler{Obj: obj, Attr: "p", MeanHigh: hi, MeanLow: lo}.
			InstallWith(w, root.Fork(), horizon)
	}
	eng.Run(horizon)

	want := FromLog(w.Log())
	Sort(want)
	got := TogglerFleet{Seed: seed, N: n, Attr: "p", MeanHigh: hi, MeanLow: lo}.Events(horizon)
	if Digest(got) != Digest(want) {
		t.Fatalf("fleet stream differs from world.Toggler reference: %d vs %d events",
			len(got), len(want))
	}
}

func TestHallTrafficOccupancyInvariant(t *testing.T) {
	const horizon = 5 * sim.Second
	g := HallTraffic{Seed: 3, Doors: 3, MeanArrival: 10 * sim.Millisecond,
		MeanStay: 200 * sim.Millisecond, InitialOccupancy: 7}
	evs := g.Events(horizon)
	var entered, left float64
	i := 0
	for i < len(evs) {
		at := evs[i].At
		for i < len(evs) && evs[i].At == at {
			switch evs[i].Attr {
			case "x":
				entered++
			case "y":
				left++
			default:
				t.Fatalf("unexpected attr %q", evs[i].Attr)
			}
			i++
		}
		if left > entered {
			t.Fatalf("occupancy negative at t=%d: entered=%v left=%v", at, entered, left)
		}
	}
	if entered == 0 {
		t.Fatal("no arrivals")
	}
	// Horizon clamping: every visitor departs by the horizon, so the hall
	// is exactly empty at the end — the balance the old in-scenario flow
	// (which dropped past-horizon departures) could not maintain.
	if entered != left {
		t.Fatalf("unbalanced at horizon: entered=%v left=%v", entered, left)
	}
}

func TestInstallPumpEquivalence(t *testing.T) {
	// Pumping a materialized stream through a world must reproduce the
	// stream exactly in the ground-truth log — generation and replay
	// share this one path.
	const horizon = 2 * sim.Second
	g := HallTraffic{Seed: 5, Doors: 4, MeanArrival: 15 * sim.Millisecond,
		MeanStay: 300 * sim.Millisecond}
	evs := g.Events(horizon)

	eng := sim.NewEngine(1)
	w := world.New(eng)
	for i := 0; i < 4; i++ {
		w.AddObject("door", nil)
	}
	Install(eng, w, evs)
	eng.Run(horizon)

	if LogDigest(w.Log()) != Digest(evs) {
		t.Fatalf("world log differs from pumped stream: %d vs %d events", len(w.Log()), len(evs))
	}
}

func TestCombineMergesCanonically(t *testing.T) {
	const horizon = sim.Second
	a := TogglerFleet{Seed: 1, N: 2, Attr: "p",
		MeanHigh: 40 * sim.Millisecond, MeanLow: 60 * sim.Millisecond}
	b := TogglerFleet{Seed: 2, N: 2, BaseObj: 2, Attr: "p",
		MeanHigh: 40 * sim.Millisecond, MeanLow: 60 * sim.Millisecond}
	evs := Combine(a, b).Events(horizon)
	if len(evs) != len(a.Events(horizon))+len(b.Events(horizon)) {
		t.Fatal("combine lost events")
	}
	for i := 1; i < len(evs); i++ {
		if compare(evs[i], evs[i-1]) < 0 {
			t.Fatalf("combine output out of order at %d", i)
		}
	}
}
