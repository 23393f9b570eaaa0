package workload

import (
	"cmp"
	"math"
	"slices"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// Scenario generators: the open-loop world activity of the scenario and
// experiment builders, materialized. Every generator owns an explicit
// Seed and draws from its own xoshiro stream in a fixed order, so the
// produced stream is a pure function of the config — independent of
// engine, shard count, worker count, and parallelism.

// Toggler flips one object's attribute between 0 and 1 with exponential
// dwells — the canonical on/off local predicate workload ("motion
// detected", "lights off"). The attribute starts low and first rises
// after a low dwell. Seeding it with a value drawn from a world's stream
// (w.RNG().Uint64()) draws what a fork of that stream would.
type Toggler struct {
	Seed uint64
	Obj  int
	Attr string
	// MeanHigh / MeanLow are the mean dwell times at 1 / 0.
	MeanHigh, MeanLow sim.Duration
}

// Events implements Source.
func (g Toggler) Events(horizon sim.Time) []Event {
	return g.append(nil, stats.NewRNG(g.Seed), horizon)
}

// append appends the toggler's stream, drawn from r, to out.
func (g Toggler) append(out []Event, r *stats.RNG, horizon sim.Time) []Event {
	cur := 0.0
	now := sim.Time(0) + expGap(r, g.MeanLow)
	for now <= horizon {
		dwell := g.MeanHigh
		if cur = 1 - cur; cur == 0 {
			dwell = g.MeanLow
		}
		out = append(out, Event{At: now, Obj: g.Obj, Attr: g.Attr, Val: cur})
		now += expGap(r, dwell)
	}
	return out
}

// TogglerFleet is N independent Togglers (objects BaseObj …
// BaseObj+N-1) — the sharded scale scenario's and the experiments'
// fleet workload. Object i's toggler is seeded with the i-th draw of
// one root stream from Seed.
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
	out := make([]Event, 0, g.expected(horizon))
	for i := 0; i < g.N; i++ {
		r := stats.NewRNG(root.Uint64()) // root.Fork(), on the stack
		tg := Toggler{Obj: g.BaseObj + i, Attr: g.Attr, MeanHigh: g.MeanHigh, MeanLow: g.MeanLow}
		out = tg.append(out, r, horizon)
	}
	Sort(out)
	return out
}

// expected is a presize for the fleet's stream: N·(horizon / mean dwell
// + 2), a toggler's expected flips plus slack, or 0 when the product
// would overflow an int. The dwell is clamped to a microsecond, as every
// drawn gap is.
func (g TogglerFleet) expected(horizon sim.Time) int {
	dwell := max((g.MeanHigh+g.MeanLow)/2, 1)
	if g.N <= 0 || horizon < 0 {
		return 0
	}
	per := int64(horizon/dwell) + 2
	if per > math.MaxInt/int64(g.N) {
		return 0
	}
	return g.N * int(per)
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
	slices.Sort(arrivals)

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
	slices.SortStableFunc(deps, func(a, b departure) int { return cmp.Compare(a.at, b.at) })
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
	slices.SortStableFunc(changes, func(a, b change) int { return cmp.Compare(a.at, b.at) })
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
	slices.SortStableFunc(pulses, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
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
