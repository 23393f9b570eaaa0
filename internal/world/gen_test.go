package world

import (
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

func TestRepeatRespectsHorizon(t *testing.T) {
	eng := sim.NewEngine(1)
	r := stats.NewRNG(1)
	var times []sim.Time
	Repeat(eng, r, stats.Constant{V: 10}, 0, 35, func(now sim.Time) {
		times = append(times, now)
	})
	eng.RunAll()
	if len(times) != 3 {
		t.Fatalf("times %v", times)
	}
	for i, want := range []sim.Time{10, 20, 30} {
		if times[i] != want {
			t.Fatalf("times %v", times)
		}
	}
}

func TestRepeatClampsTinyGaps(t *testing.T) {
	eng := sim.NewEngine(1)
	r := stats.NewRNG(1)
	n := 0
	Repeat(eng, r, stats.Constant{V: 0}, 0, 5, func(sim.Time) { n++ })
	eng.RunAll()
	if n != 5 {
		t.Fatalf("zero gaps clamped to 1µs should fire 5 times, got %d", n)
	}
}

func TestRandomWalkClamps(t *testing.T) {
	eng := sim.NewEngine(3)
	w := New(eng)
	o := w.AddObject("temp", map[string]float64{"v": 5})
	RandomWalk{Obj: o, Attr: "v", Step: 1, Min: 0, Max: 10, MeanGap: 10}.
		Install(w, 100000)
	eng.RunAll()
	if len(w.Log()) == 0 {
		t.Fatal("walk produced no events")
	}
	for _, ev := range w.Log() {
		if ev.New < 0 || ev.New > 10 {
			t.Fatalf("walk escaped clamp: %v", ev.New)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() int {
		eng := sim.NewEngine(42)
		w := New(eng)
		o := w.AddObject("x", nil)
		RandomWalk{Obj: o, Attr: "b", Step: 1, MeanGap: 70}.Install(w, 1000000)
		eng.RunAll()
		return len(w.Log())
	}
	if run() != run() {
		t.Fatal("generators are not deterministic under a fixed seed")
	}
}
