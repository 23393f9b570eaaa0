package world

import (
	"math"
	"testing"

	"pervasive/internal/sim"
)

func TestWaypointStaysInBounds(t *testing.T) {
	eng := sim.NewEngine(1)
	w := New(eng)
	o := w.AddObject("walker", nil)
	Waypoint{Obj: o, W: 10, H: 5, Speed: 2, Pause: sim.Second,
		StartX: 5, StartY: 2}.Install(w, 5*sim.Minute)
	eng.RunAll()
	moves := 0
	for _, ev := range w.Log() {
		if ev.Attr != "x" && ev.Attr != "y" {
			continue
		}
		moves++
		if ev.New < -1e-9 || (ev.Attr == "x" && ev.New > 10+1e-9) ||
			(ev.Attr == "y" && ev.New > 5+1e-9) {
			t.Fatalf("walker escaped bounds: %s=%v", ev.Attr, ev.New)
		}
	}
	if moves < 100 {
		t.Fatalf("too few movement events: %d", moves)
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	eng := sim.NewEngine(2)
	w := New(eng)
	o := w.AddObject("walker", nil)
	const speed = 1.5
	wp := Waypoint{Obj: o, W: 20, H: 20, Speed: speed, Tick: 100 * sim.Millisecond}
	wp.Install(w, 2*sim.Minute)
	eng.RunAll()
	// Reconstruct positions over time; per-tick displacement ≤ speed·tick.
	var px, py float64
	var have bool
	var lastX, lastY float64
	stride := speed*wp.Tick.Seconds() + 1e-9
	for _, ev := range w.Log() {
		switch ev.Attr {
		case "x":
			lastX = ev.New
		case "y":
			lastY = ev.New
			if have {
				d := math.Hypot(lastX-px, lastY-py)
				if d > stride {
					t.Fatalf("teleport: moved %.3f in one tick (max %.3f)", d, stride)
				}
			}
			px, py, have = lastX, lastY, true
		}
	}
}
