package workload

import (
	"math"
	"slices"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/world"
)

// allGenerators enumerates one configured instance of every generator,
// for the cross-cutting determinism/ordering checks.
// logEvents reads each entry of a ground-truth world log as the
// workload event that would have set it.
func logEvents(log []world.Event) []Event {
	evs := make([]Event, len(log))
	for i, ev := range log {
		evs[i] = Event{At: ev.At, Obj: ev.Object, Attr: ev.Attr, Val: ev.New}
	}
	return evs
}

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
	// The fleet's stream is pinned by digest to the one the
	// closure-scheduled world.Toggler it replaced drew, draw for draw (one
	// root draw per object in index order, then the alternation): every
	// experiment and bench digest seeded through it depends on it.
	const want = "fd62c8d15e645715dd95aae9944e161510e49a531f58a2d7c6c007f1c452f5bc"
	got := TogglerFleet{Seed: 99, N: 8, Attr: "p",
		MeanHigh: 300 * sim.Millisecond, MeanLow: 500 * sim.Millisecond}.Events(3 * sim.Second)
	if d := Digest(got); d != want || len(got) != 59 {
		t.Fatalf("fleet stream changed: %d events, digest %s", len(got), d)
	}
}

func TestTogglerAlternates(t *testing.T) {
	evs := Toggler{Seed: 7, Obj: 3, Attr: "on", MeanHigh: 100, MeanLow: 100}.Events(100000)
	if len(evs) < 10 {
		t.Fatalf("toggler produced only %d events", len(evs))
	}
	want := 1.0
	for i, ev := range evs {
		if ev.Val != want || ev.Obj != 3 || ev.Attr != "on" {
			t.Fatalf("toggler out of phase at %d: %+v", i, ev)
		}
		want = 1 - want
	}
}

func TestTogglerMeanDwell(t *testing.T) {
	const high, low = 50 * sim.Millisecond, 200 * sim.Millisecond
	evs := Toggler{Seed: 11, Attr: "on", MeanHigh: high, MeanLow: low}.Events(20 * sim.Minute)
	var tot float64
	pulses := 0
	for i := 0; i+1 < len(evs); i += 2 {
		tot += float64(evs[i+1].At - evs[i].At)
		pulses++
	}
	if pulses < 100 {
		t.Fatalf("too few pulses: %d", pulses)
	}
	if mean := tot / float64(pulses); math.Abs(mean-float64(high))/float64(high) > 0.15 {
		t.Fatalf("mean high dwell %.0fµs want ~%dµs", mean, high)
	}
}

// positions replays a walk's stream as one (x, y) pair per report.
func positions(t *testing.T, evs []Event) [][2]float64 {
	t.Helper()
	var out [][2]float64
	for i := 0; i+1 < len(evs); i += 2 {
		if evs[i].Attr != "x" || evs[i+1].Attr != "y" || evs[i].At != evs[i+1].At {
			t.Fatalf("report %d is not an x, y pair: %+v %+v", i/2, evs[i], evs[i+1])
		}
		out = append(out, [2]float64{evs[i].Val, evs[i+1].Val})
	}
	return out
}

func TestMobilityWalkStaysInBounds(t *testing.T) {
	g := MobilityWalk{Seed: 1, W: 10, H: 5, Speed: 2, Tick: 200 * sim.Millisecond, Pause: sim.Second}
	pos := positions(t, g.Events(5*sim.Minute))
	for _, p := range pos {
		if p[0] < 0 || p[0] > 10 || p[1] < 0 || p[1] > 5 {
			t.Fatalf("walker escaped bounds: %v", p)
		}
	}
	// Resting at waypoints reports nothing, so a pausing walk reports
	// fewer than every tick of the horizon, yet keeps moving.
	if len(pos) < 100 || len(pos) >= 1500 {
		t.Fatalf("%d reports over 1500 ticks", len(pos))
	}
}

func TestMobilityWalkSpeedBound(t *testing.T) {
	const speed = 1.5
	for _, pause := range []sim.Duration{0, sim.Second} {
		g := MobilityWalk{Seed: 2, W: 20, H: 20, Speed: speed, Tick: 100 * sim.Millisecond, Pause: pause}
		evs := g.Events(2 * sim.Minute)
		pos := positions(t, evs)
		stride := speed*g.Tick.Seconds() + 1e-9
		for i := 1; i < len(pos); i++ {
			// A report after a rest may come ticks later; the bound is
			// per tick elapsed.
			ticks := float64(evs[2*i].At-evs[2*i-2].At) / float64(g.Tick)
			if d := math.Hypot(pos[i][0]-pos[i-1][0], pos[i][1]-pos[i-1][1]); d > stride*ticks {
				t.Fatalf("pause %v: teleport: moved %.3f in %.0f ticks (max %.3f a tick)", pause, d, ticks, stride)
			}
		}
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

	if !slices.Equal(logEvents(w.Log()), evs) {
		t.Fatalf("world log differs from pumped stream: %d vs %d events", len(w.Log()), len(evs))
	}
}

// TestInstallSizesTheLogOnce: a pump sizes the world's ground-truth log
// for the events it will record — those of its range below the world's
// LogBelow bound — so the run appends into one array and never regrows it.
func TestInstallSizesTheLogOnce(t *testing.T) {
	const horizon = sim.Second
	evs := TogglerFleet{Seed: 3, N: 8, Attr: "p",
		MeanHigh: 20 * sim.Millisecond, MeanLow: 30 * sim.Millisecond}.Events(horizon)
	for _, tc := range []struct {
		name          string
		lo, hi, bound int
		install       func(*sim.Engine, *world.World)
	}{
		{"Install", 0, 8, 8, func(eng *sim.Engine, w *world.World) { Install(eng, w, evs) }},
		{"InstallRange below a bound", 2, 6, 3, func(eng *sim.Engine, w *world.World) { InstallRange(eng, w, evs, 2, 6) }},
	} {
		eng := sim.NewEngine(1)
		w := world.New(eng)
		for range tc.hi - tc.lo {
			w.AddObject("", nil)
		}
		w.LogBelow(tc.bound)
		tc.install(eng, w)
		want := 0
		for _, ev := range evs {
			if ev.Obj >= tc.lo && ev.Obj < tc.hi && ev.Obj-tc.lo < tc.bound {
				want++
			}
		}
		sized := cap(w.Log())
		if sized < want {
			t.Fatalf("%s: log sized for %d events, the run records %d", tc.name, sized, want)
		}
		first := &w.Log()[:1][0]
		eng.Run(horizon)
		if got := len(w.Log()); got != want {
			t.Fatalf("%s: %d events logged, want %d", tc.name, got, want)
		}
		if cap(w.Log()) != sized || &w.Log()[0] != first {
			t.Fatalf("%s: the log regrew from %d to %d slots during the run", tc.name, sized, cap(w.Log()))
		}
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
