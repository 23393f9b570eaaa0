// Package world implements the world plane ⟨O, C⟩ of the paper's system
// model (Section 2.1): a set O of passive external objects with attributes
// that sensors can observe, and a covert-channel overlay C over which
// objects influence one another in ways the network plane cannot trace.
//
// The world runs on the shared discrete-event engine. Every attribute
// change is recorded in a ground-truth log with its true (global) time and
// its world-plane cause, which is exactly the information the paper says
// is unavailable to the network plane — making it the oracle against which
// detector accuracy is scored.
package world

import (
	"fmt"
	"math"
	"sort"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// AttrKey identifies one attribute of one object.
type AttrKey struct {
	Object int
	Attr   string
}

// NoCause marks a spontaneous world event (no covert-channel predecessor).
const NoCause = -1

// Event is one ground-truth attribute change in the world plane.
type Event struct {
	Seq    int      // position in the world log
	At     sim.Time // true global time of the change
	Object int
	Attr   string
	Old    float64
	New    float64
	// Cause is the Seq of the world event that triggered this one through
	// a covert channel in C, or NoCause if spontaneous. The network plane
	// never sees this field; it exists to measure how much causality is
	// lost (experiment E11).
	Cause int
}

// Listener observes world events; sensors in the network plane attach
// listeners to model their sensing range.
type Listener func(Event)

// column is one attribute across every object: its values and its keyed
// listeners, both indexed by object id. Objects are passive world-plane
// entities with no clock and no network presence (Section 2.1's
// distinguishing features), so an object is nothing but its id: a world
// holds a handful of attributes over up to a fleet of objects, and a column
// per attribute costs one float per object, allocated when the attribute
// is first touched, not a header and a cell per object. A column covers
// the ids below its length and grows to the object count on first touch
// past it; listeners is nil until the attribute's first Subscribe.
type column struct {
	name      string
	vals      []float64
	listeners [][]Listener
}

// World is the ⟨O, C⟩ plane.
type World struct {
	eng  *sim.Engine
	rng  *stats.RNG
	n    int      // object count; object ids are 0 … n-1
	cols []column // in first-touch order, found by a linear scan
	log  []Event
	// logBound: only events of objects with id < logBound are logged.
	logBound int
	all      []Listener
	rules    []CovertRule
}

// New creates an empty world on the given engine.
func New(eng *sim.Engine) *World {
	return &World{eng: eng, rng: eng.RNG().Fork(), logBound: math.MaxInt}
}

// RNG returns the world's random stream, forked from its engine's. A
// workload seeded with one draw of it, workload.Toggler{Seed:
// w.RNG().Uint64()}, draws what a generator forking it there would.
func (w *World) RNG() *stats.RNG { return w.rng }

// find returns the index of attr's column, or -1 if it was never touched.
func (w *World) find(attr string) int {
	for i := range w.cols {
		if w.cols[i].name == attr {
			return i
		}
	}
	return -1
}

// column returns attr's column grown to cover obj, creating it on first
// touch. The pointer is valid until the next column is created.
func (w *World) column(obj int, attr string) *column {
	if obj < 0 || obj >= w.n {
		panic(fmt.Sprintf("world: object %d out of range", obj))
	}
	i := w.find(attr)
	if i < 0 {
		i = len(w.cols)
		w.cols = append(w.cols, column{name: attr})
	}
	c := &w.cols[i]
	if obj >= len(c.vals) {
		c.vals = append(c.vals, make([]float64, w.n-len(c.vals))...)
	}
	return c
}

// AddObject creates an object with the given initial attributes and
// returns its ID. The first argument labels the object at the call site
// only: the world keeps no name, since nothing reads one.
func (w *World) AddObject(_ string, attrs map[string]float64) int {
	obj := w.n
	w.n++
	names := make([]string, 0, len(attrs))
	for a := range attrs {
		names = append(names, a)
	}
	sort.Strings(names) // columns in name order, not map iteration order
	for _, a := range names {
		w.column(obj, a).vals[obj] = attrs[a]
	}
	return obj
}

// Get returns the current value of an attribute (0 if never set).
func (w *World) Get(obj int, attr string) float64 {
	if obj < 0 || obj >= w.n {
		panic(fmt.Sprintf("world: object %d out of range", obj))
	}
	if i := w.find(attr); i >= 0 && obj < len(w.cols[i].vals) {
		return w.cols[i].vals[obj]
	}
	return 0
}

// Set changes an attribute spontaneously at the current engine time.
func (w *World) Set(obj int, attr string, v float64) {
	w.set(obj, attr, v, NoCause)
}

func (w *World) set(obj int, attr string, v float64, cause int) {
	c := w.column(obj, attr)
	ev := Event{
		Seq: len(w.log), At: w.eng.Now(),
		Object: obj, Attr: attr, Old: c.vals[obj], New: v, Cause: cause,
	}
	c.vals[obj] = v
	// A listener may touch a new attribute (or add an object) and move the
	// columns, so c is dead once the first one runs: the listeners of this
	// round are the slice as it stands now.
	var keyed []Listener
	if obj < len(c.listeners) {
		keyed = c.listeners[obj]
	}
	if obj < w.logBound {
		w.log = append(w.log, ev)
	}
	for _, l := range keyed {
		l(ev)
	}
	for _, l := range w.all {
		l(ev)
	}
	w.applyRules(ev)
}

// Subscribe attaches a listener to one attribute of one object. This
// models a sensor whose range covers the object; the listener runs at the
// true event time on the engine, before any SubscribeAll listener.
func (w *World) Subscribe(obj int, attr string, l Listener) {
	c := w.column(obj, attr)
	if obj >= len(c.listeners) {
		c.listeners = append(c.listeners, make([][]Listener, w.n-len(c.listeners))...)
	}
	c.listeners[obj] = append(c.listeners[obj], l)
}

// SubscribeAll attaches a listener to every world event, after the keyed
// listeners of the event's attribute. Oracles and traces use it as an
// omniscient observer; a sharded fleet uses one per world as the binding of
// every sensor to its own object, filtering by attribute itself.
func (w *World) SubscribeAll(l Listener) { w.all = append(w.all, l) }

// Log returns the ground-truth event log so far. The returned slice is the
// live log; callers must not modify it.
func (w *World) Log() []Event { return w.log }

// LogBelow restricts ground-truth recording, from now on, to objects with
// id < n; listeners still fire for every object. Sharded scale runs bound
// each world's log to the scored pilot objects it hosts, so ground-truth
// memory tracks the pilot, not the fleet. Under a bound Event.Seq and
// Event.Cause stop being log positions (an unlogged event still takes the
// Seq the next logged one will), so worlds with covert rules should keep
// the whole log.
func (w *World) LogBelow(n int) { w.logBound = n }

// DiscardLog stops recording ground-truth events from now on: the bound
// that admits no object.
func (w *World) DiscardLog() { w.LogBelow(0) }

// CovertRule is an edge of the covert-channel overlay C: when SrcObj.SrcAttr
// changes, then with probability Prob, after a Delay drawn in microseconds,
// DstObj.DstAttr changes to Transform(srcNew, dstOld). The resulting event
// records the triggering event as its Cause. Current technology cannot
// detect these channels (Section 2.1), so no listener API exposes Cause.
type CovertRule struct {
	SrcObj  int
	SrcAttr string
	DstObj  int
	DstAttr string
	Prob    float64
	Delay   stats.Dist
	// Transform computes the destination's new value; nil means copy the
	// source value.
	Transform func(srcNew, dstOld float64) float64
}

// AddCovertRule installs a covert-channel rule.
func (w *World) AddCovertRule(r CovertRule) { w.rules = append(w.rules, r) }

func (w *World) applyRules(ev Event) {
	for _, r := range w.rules {
		if r.SrcObj != ev.Object || r.SrcAttr != ev.Attr {
			continue
		}
		if !w.rng.Bool(r.Prob) {
			continue
		}
		r := r
		cause := ev.Seq
		srcNew := ev.New
		d := sim.Duration(r.Delay.Sample(w.rng))
		if d < 0 {
			d = 0
		}
		w.eng.After(d, func(sim.Time) {
			old := w.Get(r.DstObj, r.DstAttr)
			nv := srcNew
			if r.Transform != nil {
				nv = r.Transform(srcNew, old)
			}
			w.set(r.DstObj, r.DstAttr, nv, cause)
		})
	}
}

// StateAt replays the log and returns all attribute values as of time t
// (inclusive).
func (w *World) StateAt(t sim.Time) map[AttrKey]float64 {
	state := make(map[AttrKey]float64)
	for _, ev := range w.log {
		if ev.At > t {
			break
		}
		state[AttrKey{ev.Object, ev.Attr}] = ev.New
	}
	return state
}

// Interval is a half-open span [Start, End) of true global time.
type Interval struct {
	Start, End sim.Time
}

// Contains reports whether t lies in the interval.
func (iv Interval) Contains(t sim.Time) bool { return t >= iv.Start && t < iv.End }

// Overlap returns the length of the intersection of two intervals (0 if
// disjoint).
func (iv Interval) Overlap(other Interval) sim.Duration {
	lo := iv.Start
	if other.Start > lo {
		lo = other.Start
	}
	hi := iv.End
	if other.End < hi {
		hi = other.End
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// CausalPairs extracts the world-plane causality relation from the log as
// (cause, effect) Seq pairs, including transitive pairs if transitive is
// set. This is the relation the network plane would need the hidden
// channels to reconstruct (Section 4.1).
func CausalPairs(log []Event, transitive bool) [][2]int {
	var direct [][2]int
	for _, ev := range log {
		if ev.Cause != NoCause {
			direct = append(direct, [2]int{ev.Cause, ev.Seq})
		}
	}
	if !transitive {
		return direct
	}
	// Transitive closure over the (sparse) cause forest: follow parent
	// pointers upward from each effect.
	parent := make(map[int]int)
	for _, p := range direct {
		parent[p[1]] = p[0]
	}
	var all [][2]int
	for _, p := range direct {
		eff := p[1]
		anc, ok := p[0], true
		for ok {
			all = append(all, [2]int{anc, eff})
			anc, ok = parent[anc]
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i][0] != all[j][0] {
			return all[i][0] < all[j][0]
		}
		return all[i][1] < all[j][1]
	})
	return all
}
