package world

import (
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// Open-loop world activity, which no detector output feeds back into, is
// a workload.Source. What stays here reads the world's current value when
// it fires, so actuation writes steer it; it owns a stream forked from the
// world's, so adding one never perturbs another's randomness.

// Repeat schedules fn at inter-arrival gaps drawn from gap (in
// microseconds) until the horizon. fn runs at the drawn instants; the
// first arrival is one gap after start.
func Repeat(eng *sim.Engine, r *stats.RNG, gap stats.Dist, start, horizon sim.Time, fn func(now sim.Time)) {
	var schedule func(from sim.Time)
	schedule = func(from sim.Time) {
		d := sim.Duration(gap.Sample(r))
		if d < 1 {
			d = 1
		}
		next := from + d
		if next > horizon {
			return
		}
		eng.At(next, func(now sim.Time) {
			fn(now)
			schedule(now)
		})
	}
	schedule(start)
}

// RandomWalk makes an attribute perform a ±Step random walk from its
// current value, optionally clamped to [Min, Max], at exponential
// intervals with the given mean.
type RandomWalk struct {
	Obj      int
	Attr     string
	Step     float64
	Min, Max float64 // ignored when Min == Max
	MeanGap  sim.Duration
}

// Install starts the walk on w until the horizon.
func (rw RandomWalk) Install(w *World, horizon sim.Time) {
	r := w.rng.Fork()
	Repeat(w.eng, r, stats.Exponential{MeanV: float64(rw.MeanGap)}, 0, horizon,
		func(sim.Time) {
			v := w.Get(rw.Obj, rw.Attr)
			if r.Bool(0.5) {
				v += rw.Step
			} else {
				v -= rw.Step
			}
			if rw.Min != rw.Max {
				if v < rw.Min {
					v = rw.Min
				}
				if v > rw.Max {
					v = rw.Max
				}
			}
			w.Set(rw.Obj, rw.Attr, v)
		})
}
