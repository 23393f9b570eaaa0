package workload

import (
	"sort"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// Scenario generators: materialized equivalents of the hand-rolled
// togglers and Poisson flows that previously lived inside the scenario
// and experiment builders. Every generator owns an explicit Seed and
// draws from its own xoshiro stream in a fixed order, so the produced
// stream is a pure function of the config — independent of engine,
// shard count, worker count, and parallelism.

// TogglerFleet is N independent on/off togglers (objects BaseObj …
// BaseObj+N-1), each flipping Attr between 0 and 1 with exponential
// dwells — the sharded scale scenario's fleet workload. Stream
// discipline matches the harness convention: one root RNG from Seed,
// one Fork per object in index order, so the draws per object are
// identical to the former per-sensor world.Toggler installation.
type TogglerFleet struct {
	Seed    uint64
	N       int
	BaseObj int
	Attr    string
	// MeanHigh / MeanLow are the mean dwell times at 1 / 0.
	MeanHigh, MeanLow sim.Duration
}

// Events implements Source.
func (g TogglerFleet) Events(horizon sim.Time) []Event {
	root := stats.NewRNG(g.Seed)
	var out []Event
	for i := 0; i < g.N; i++ {
		r := stats.NewRNG(root.Uint64()) // root.Fork(), on the stack
		obj := g.BaseObj + i
		cur := 0.0
		now := sim.Time(0) + expGap(r, g.MeanLow)
		for now <= horizon {
			var dwell sim.Duration
			if cur == 0 {
				cur = 1
				dwell = g.MeanHigh
			} else {
				cur = 0
				dwell = g.MeanLow
			}
			out = append(out, Event{At: now, Obj: obj, Attr: g.Attr, Val: cur})
			now += expGap(r, dwell)
		}
	}
	Sort(out)
	return out
}

// HallTraffic is the exhibition-hall visitor flow (paper §5): Poisson
// arrivals, each visitor entering through a uniformly random door
// (incrementing that door's cumulative "x") and leaving through an
// independently chosen door after an exponential stay (incrementing its
// "y"). Doors are objects 0 … Doors-1.
//
// Unlike the old in-scenario closure, departures are derived from
// arrivals one-for-one, so Σx − Σy ≥ 0 holds at every instant by
// construction (the occupancy invariant), and visitors whose stay
// extends past the horizon depart *at* the horizon instead of being
// dropped — which is what makes a recorded trace equal its regeneration
// near the horizon.
type HallTraffic struct {
	Seed  uint64
	Doors int
	// MeanArrival is the mean gap between visitor arrivals; MeanStay the
	// mean dwell inside the hall.
	MeanArrival sim.Duration
	MeanStay    sim.Duration
	// InitialOccupancy seeds the hall with visitors entering during a
	// one-second ramp, so runs start near capacity.
	InitialOccupancy int
}

// Events implements Source.
func (g HallTraffic) Events(horizon sim.Time) []Event {
	r := stats.NewRNG(g.Seed)
	stay := stats.Exponential{MeanV: float64(g.MeanStay)}

	// Arrival instants: the ramp-up seeding plus the Poisson flow, both
	// starting at t=1 as before.
	var arrivals []sim.Time
	for k := 0; k < g.InitialOccupancy; k++ {
		at := 1 + sim.Time(k)*sim.Second/sim.Time(g.InitialOccupancy)
		if at <= horizon {
			arrivals = append(arrivals, at)
		}
	}
	for now := sim.Time(1); ; {
		now += expGap(r, g.MeanArrival)
		if now > horizon {
			break
		}
		arrivals = append(arrivals, now)
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })

	// Walk arrivals chronologically: draw the visitor's doors and stay at
	// entry time, clamp the departure to the horizon.
	type departure struct {
		at   sim.Time
		door int
	}
	var (
		out  []Event
		deps []departure
		x    = make([]float64, g.Doors)
	)
	for _, at := range arrivals {
		in := r.Intn(g.Doors)
		x[in]++
		out = append(out, Event{At: at, Obj: in, Attr: "x", Val: x[in]})
		d := at + sim.Duration(clampGap(stay.Sample(r)))
		if d > horizon {
			d = horizon
		}
		deps = append(deps, departure{at: d, door: r.Intn(g.Doors)})
	}
	sort.SliceStable(deps, func(i, j int) bool { return deps[i].at < deps[j].at })
	y := make([]float64, g.Doors)
	for _, dep := range deps {
		y[dep.door]++
		out = append(out, Event{At: dep.at, Obj: dep.door, Attr: "y", Val: y[dep.door]})
	}
	Sort(out)
	return out
}

// Admissions is the hospital flow (paper §5): waiting-room doors
// (objects 0 … Doors-1) carry a HallTraffic-style visitor stream on
// attributes "x"/"y", and the ward object (Doors) carries an
// "occupancy" count of disallowed visits — Poisson entries dwelling a
// quarter of MeanStay, clamped to the horizon like every flow here.
type Admissions struct {
	Seed  uint64
	Doors int
	// MeanArrival / MeanStay parameterize the waiting-room flow;
	// WardMeanVisit the gap between ward entries.
	MeanArrival   sim.Duration
	MeanStay      sim.Duration
	WardMeanVisit sim.Duration
}

// Events implements Source.
func (g Admissions) Events(horizon sim.Time) []Event {
	out := HallTraffic{
		Seed: g.Seed, Doors: g.Doors,
		MeanArrival: g.MeanArrival, MeanStay: g.MeanStay,
	}.Events(horizon)

	// Ward visits draw from their own derived stream so the two flows
	// stay independent.
	r := stats.NewRNG(DeriveSeed(g.Seed, 0x11))
	visit := stats.Exponential{MeanV: float64(g.MeanStay / 4)}
	type change struct {
		at sim.Time
		d  float64
	}
	var changes []change
	for now := sim.Time(1); ; {
		now += expGap(r, g.WardMeanVisit)
		if now > horizon {
			break
		}
		changes = append(changes, change{at: now, d: 1})
		leave := now + sim.Duration(clampGap(visit.Sample(r)))
		if leave > horizon {
			leave = horizon
		}
		changes = append(changes, change{at: leave, d: -1})
	}
	sort.SliceStable(changes, func(i, j int) bool { return changes[i].at < changes[j].at })
	occ, ward := 0.0, g.Doors
	for _, c := range changes {
		occ += c.d
		out = append(out, Event{At: c.at, Obj: ward, Attr: "occupancy", Val: occ})
	}
	Sort(out)
	return out
}

// interval is a half-open busy period [start, end) used by the pulse
// generators.
type interval struct{ start, end sim.Time }

// pulsesToEvents merges overlapping pulse intervals and emits the
// rise/fall pairs of the merged cover (clamped to the horizon), so the
// attribute is exactly 1 inside a pulse and 0 outside — overlapping
// pulses extend the busy period instead of double-setting.
func pulsesToEvents(obj int, attr string, pulses []interval, horizon sim.Time) []Event {
	sort.SliceStable(pulses, func(i, j int) bool { return pulses[i].start < pulses[j].start })
	var out []Event
	var cur interval
	flush := func() {
		if cur.end <= cur.start {
			return
		}
		out = append(out, Event{At: cur.start, Obj: obj, Attr: attr, Val: 1})
		end := cur.end
		if end > horizon {
			end = horizon
		}
		if end > cur.start {
			out = append(out, Event{At: end, Obj: obj, Attr: attr, Val: 0})
		}
	}
	for _, p := range pulses {
		if p.start > horizon {
			break
		}
		if p.start <= cur.end && cur.end > cur.start {
			if p.end > cur.end {
				cur.end = p.end
			}
			continue
		}
		flush()
		cur = p
	}
	flush()
	return out
}
