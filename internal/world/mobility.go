package world

import (
	"math"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// Waypoint implements the random-waypoint mobility model for a world
// object: the object picks a uniform destination in the [0,W]×[0,H]
// rectangle, moves toward it at Speed (units per second), pauses, and
// repeats. Position is exposed through the attributes "x" and "y",
// updated every Tick — so sensors observe movement as ordinary attribute
// changes and predicates can mention coordinates.
type Waypoint struct {
	Obj    int
	W, H   float64
	Speed  float64      // units per true second
	Pause  sim.Duration // mean pause at each waypoint (exponential)
	Tick   sim.Duration // position update granularity
	StartX float64
	StartY float64
}

// Install starts the mobility process on w until the horizon.
func (wp Waypoint) Install(w *World, horizon sim.Time) {
	if wp.Tick <= 0 {
		wp.Tick = 200 * sim.Millisecond
	}
	if wp.Speed <= 0 {
		wp.Speed = 1
	}
	r := w.rng.Fork()
	x, y := wp.StartX, wp.StartY
	w.Set(wp.Obj, "x", x)
	w.Set(wp.Obj, "y", y)

	var newLeg func(now sim.Time)
	var step func(tx, ty float64) sim.Handler

	step = func(tx, ty float64) sim.Handler {
		return func(now sim.Time) {
			dx, dy := tx-x, ty-y
			dist := math.Hypot(dx, dy)
			stride := wp.Speed * wp.Tick.Seconds()
			if dist <= stride {
				x, y = tx, ty
				w.Set(wp.Obj, "x", x)
				w.Set(wp.Obj, "y", y)
				pause := sim.Duration(stats.Exponential{MeanV: float64(wp.Pause)}.Sample(r))
				if wp.Pause <= 0 {
					pause = 0
				}
				if now+pause+wp.Tick <= horizon {
					w.eng.At(now+pause+wp.Tick, func(t2 sim.Time) { newLeg(t2) })
				}
				return
			}
			x += dx / dist * stride
			y += dy / dist * stride
			w.Set(wp.Obj, "x", x)
			w.Set(wp.Obj, "y", y)
			if now+wp.Tick <= horizon {
				w.eng.At(now+wp.Tick, step(tx, ty))
			}
		}
	}
	newLeg = func(now sim.Time) {
		tx := r.Float64() * wp.W
		ty := r.Float64() * wp.H
		if now+wp.Tick <= horizon {
			w.eng.At(now+wp.Tick, step(tx, ty))
		}
	}
	w.eng.At(1, func(now sim.Time) { newLeg(now) })
}
