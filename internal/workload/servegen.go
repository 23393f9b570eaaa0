package workload

import (
	"math"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// ServeGen-style statistical generators: production-shaped load rather
// than flat Poisson. Each produces binary pulse activity (rise to 1,
// fall to 0) or continuous readings on one object, and composes with
// Combine into fleet-wide workloads.

// Diurnal is a non-homogeneous Poisson pulse train whose instantaneous
// rate follows a multi-period "diurnal" profile:
//
//	λ(t) = (1/MeanGap) · max(0, 1 + Amp·Σ_{k=1..Harmonics} sin(2πkt/Period + Phase)/k)
//
// Harmonics > 1 superimposes faster cycles on the base period (the
// morning/evening double peak of real deployments). Pulses are sampled
// by thinning against the rate envelope, so the stream is exact for any
// profile and deterministic in Seed.
type Diurnal struct {
	Seed uint64
	Obj  int
	Attr string
	// MeanGap is the mean pulse gap at baseline intensity (λ = 1/MeanGap).
	MeanGap sim.Duration
	// Amp ∈ [0, 1] scales the modulation depth; 0 degenerates to a
	// homogeneous Poisson train.
	Amp       float64
	Period    sim.Duration
	Harmonics int
	// Phase offsets the profile (radians) — the knob E16 sweeps.
	Phase float64
	// Width is each pulse's high time.
	Width sim.Duration
}

// rate returns the modulation factor λ(t)·MeanGap.
func (g Diurnal) rate(t sim.Time) float64 {
	h := g.Harmonics
	if h <= 0 {
		h = 1
	}
	f := 1.0
	for k := 1; k <= h; k++ {
		f += g.Amp * math.Sin(2*math.Pi*float64(k)*float64(t)/float64(g.Period)+g.Phase) / float64(k)
	}
	if f < 0 {
		f = 0
	}
	return f
}

// envelope returns an upper bound on the modulation factor.
func (g Diurnal) envelope() float64 {
	h := g.Harmonics
	if h <= 0 {
		h = 1
	}
	e := 1.0
	for k := 1; k <= h; k++ {
		e += g.Amp / float64(k)
	}
	return e
}

// Events implements Source.
func (g Diurnal) Events(horizon sim.Time) []Event {
	r := stats.NewRNG(g.Seed)
	env := g.envelope()
	gap := stats.Exponential{MeanV: float64(g.MeanGap) / env}
	var pulses []interval
	for now := sim.Time(0); ; {
		now += clampGap(gap.Sample(r))
		if now > horizon {
			break
		}
		if r.Float64()*env < g.rate(now) { // thinning acceptance
			pulses = append(pulses, interval{start: now, end: now + g.Width})
		}
	}
	return pulsesToEvents(g.Obj, g.Attr, pulses, horizon)
}

// ParetoBursts is a heavy-tailed burst train: burst onsets arrive as a
// Poisson process with MeanBurstGap, and each burst fires a
// Pareto(Xm, Alpha)-sized run of pulses PulseGap apart. Alpha near 1
// gives the long-tailed "elephant burst" regime whose overlap behavior
// flat Poisson load never exercises.
type ParetoBursts struct {
	Seed         uint64
	Obj          int
	Attr         string
	MeanBurstGap sim.Duration
	// Xm / Alpha parameterize the burst-size Pareto (size = ceil(sample),
	// capped at MaxBurst; default cap 10⁴ keeps α < 1 runs finite).
	Xm       float64
	Alpha    float64
	MaxBurst int
	PulseGap sim.Duration
	Width    sim.Duration
}

// Events implements Source.
func (g ParetoBursts) Events(horizon sim.Time) []Event {
	r := stats.NewRNG(g.Seed)
	size := stats.Pareto{Xm: g.Xm, Alpha: g.Alpha}
	maxBurst := g.maxBurst()
	var pulses []interval
	for now := sim.Time(0); ; {
		now += expGap(r, g.MeanBurstGap)
		if now > horizon {
			break
		}
		n := int(math.Ceil(size.Sample(r)))
		if n < 1 {
			n = 1
		}
		if n > maxBurst {
			n = maxBurst
		}
		for j := 0; j < n; j++ {
			start := now + sim.Duration(j)*g.PulseGap
			if start > horizon {
				break
			}
			pulses = append(pulses, interval{start: start, end: start + g.Width})
		}
	}
	return pulsesToEvents(g.Obj, g.Attr, pulses, horizon)
}

func (g ParetoBursts) maxBurst() int {
	if g.MaxBurst <= 0 {
		return 10000
	}
	return g.MaxBurst
}

// worstPulses is the work a train asks for over horizon h in the worst
// case: h / max(MeanBurstGap, 1 µs) + 1 bursts of min(MaxBurst,
// h / PulseGap + 1) pulses each. PulseGap must be positive.
func (g ParetoBursts) worstPulses(h sim.Time) float64 {
	bursts := float64(h/max(g.MeanBurstGap, 1)) + 1
	return bursts * min(float64(g.maxBurst()), float64(h/g.PulseGap)+1)
}

// Cohort is a correlated sensor group: object Objs[0] is the leader,
// emitting Poisson pulses; every follower copies each leader pulse with
// probability Rho, delayed by Lag plus a uniform ±Jitter — the "people
// moving through adjacent rooms" correlation of the paper's exhibition
// hall. Rho = 0 degenerates to a silent cohort; Rho = 1 to a marching
// fleet.
type Cohort struct {
	Seed    uint64
	Objs    []int
	Attr    string
	MeanGap sim.Duration
	Width   sim.Duration
	Rho     float64
	Lag     sim.Duration
	Jitter  sim.Duration
}

// Events implements Source.
func (g Cohort) Events(horizon sim.Time) []Event {
	if len(g.Objs) == 0 {
		return nil
	}
	r := stats.NewRNG(g.Seed)
	var leader []interval
	for now := sim.Time(0); ; {
		now += expGap(r, g.MeanGap)
		if now > horizon {
			break
		}
		leader = append(leader, interval{start: now, end: now + g.Width})
	}
	out := pulsesToEvents(g.Objs[0], g.Attr, leader, horizon)
	for fi, obj := range g.Objs[1:] {
		// Per-follower stream derived from the seed, not forked from the
		// leader's: the leader draws a horizon-dependent number of gaps,
		// and a fork taken after them would shift with the horizon.
		fr := stats.NewRNG(DeriveSeed(g.Seed, uint64(fi)+1))
		var pulses []interval
		for _, p := range leader {
			if !fr.Bool(g.Rho) {
				continue
			}
			lag := g.Lag
			if g.Jitter > 0 {
				lag += sim.Duration(fr.Int63n(int64(2*g.Jitter+1))) - g.Jitter
			}
			start := p.start + lag
			if start < 1 {
				start = 1
			}
			if start > horizon {
				continue
			}
			pulses = append(pulses, interval{start: start, end: start + g.Width})
		}
		out = append(out, pulsesToEvents(obj, g.Attr, pulses, horizon)...)
	}
	Sort(out)
	return out
}

// MobilityWalk is a random-waypoint mobility model: the object starts
// at a uniform point of a W×H area, moves at Speed toward a uniform
// waypoint, re-targets on arrival, and reports its position ("x", "y")
// every Tick. Positions are raw float64 readings — the codec path that
// exercises the trace format's non-integral encoding.
type MobilityWalk struct {
	Seed uint64
	Obj  int
	// W / H bound the area; Speed is distance per second.
	W, H  float64
	Speed float64
	Tick  sim.Duration
	// Pause, when positive, is the mean exponential rest at each
	// waypoint reached; a resting object reports nothing.
	Pause sim.Duration
}

// Events implements Source.
func (g MobilityWalk) Events(horizon sim.Time) []Event {
	r := stats.NewRNG(g.Seed)
	x, y := g.W*r.Float64(), g.H*r.Float64()
	tx, ty := g.W*r.Float64(), g.H*r.Float64()
	step := g.Speed * float64(g.Tick) / float64(sim.Second)
	var out []Event
	var resume sim.Time // a rest ends here
	for now := sim.Time(g.Tick); now <= horizon; now += g.Tick {
		if now < resume {
			continue
		}
		for left := step; left > 0; {
			dx, dy := tx-x, ty-y
			dist := math.Hypot(dx, dy)
			if dist <= left {
				x, y = tx, ty
				left -= dist
				tx, ty = g.W*r.Float64(), g.H*r.Float64()
				if g.Pause > 0 {
					resume = now + expGap(r, g.Pause)
					break
				}
				continue
			}
			x += dx / dist * left
			y += dy / dist * left
			left = 0
		}
		out = append(out, Event{At: now, Obj: g.Obj, Attr: "x", Val: x})
		out = append(out, Event{At: now, Obj: g.Obj, Attr: "y", Val: y})
	}
	return out
}
