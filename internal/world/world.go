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

// object is a passive world-plane entity. Objects have no clock and no
// network presence (Section 2.1's distinguishing features). Its attributes
// are cells in first-touch order, found by a linear scan: an object carries
// a handful of attributes, so the scan over one contiguous slice is shorter
// than a hash, and the listeners of an attribute sit beside its value.
type object struct {
	name  string
	cells []attrCell
}

// attrCell is one attribute of one object: its current value and the
// listeners subscribed to it.
type attrCell struct {
	name      string
	val       float64
	listeners []Listener
}

// find returns the index of attr's cell, or -1 if it was never touched.
func (o *object) find(attr string) int {
	for i := range o.cells {
		if o.cells[i].name == attr {
			return i
		}
	}
	return -1
}

// cell returns attr's cell, creating it (value 0, no listeners) on first
// touch. The pointer is valid until the next cell is created.
func (o *object) cell(attr string) *attrCell {
	i := o.find(attr)
	if i < 0 {
		i = len(o.cells)
		o.cells = append(o.cells, attrCell{name: attr})
	}
	return &o.cells[i]
}

// World is the ⟨O, C⟩ plane.
type World struct {
	eng     *sim.Engine
	rng     *stats.RNG
	objects []object // the object id is the index
	log     []Event
	// logBound: only events of objects with id < logBound are logged.
	logBound int
	all      []Listener
	rules    []CovertRule
}

// New creates an empty world on the given engine.
func New(eng *sim.Engine) *World {
	return &World{eng: eng, rng: eng.RNG().Fork(), logBound: math.MaxInt}
}

// AddObject creates an object with the given initial attributes and
// returns its ID.
func (w *World) AddObject(name string, attrs map[string]float64) int {
	o := object{name: name}
	for a, v := range attrs {
		o.cells = append(o.cells, attrCell{name: a, val: v})
	}
	// by name: the layout must not depend on map iteration order
	sort.Slice(o.cells, func(i, j int) bool { return o.cells[i].name < o.cells[j].name })
	w.objects = append(w.objects, o)
	return len(w.objects) - 1
}

// Get returns the current value of an attribute (0 if never set).
func (w *World) Get(obj int, attr string) float64 {
	o := &w.objects[obj]
	if i := o.find(attr); i >= 0 {
		return o.cells[i].val
	}
	return 0
}

// Set changes an attribute spontaneously at the current engine time.
func (w *World) Set(obj int, attr string, v float64) {
	w.set(obj, attr, v, NoCause)
}

func (w *World) set(obj int, attr string, v float64, cause int) {
	if obj < 0 || obj >= len(w.objects) {
		panic(fmt.Sprintf("world: object %d out of range", obj))
	}
	c := w.objects[obj].cell(attr)
	ev := Event{
		Seq: len(w.log), At: w.eng.Now(),
		Object: obj, Attr: attr, Old: c.val, New: v, Cause: cause,
	}
	c.val = v
	// A listener may touch a new attribute of this object (or add an
	// object) and move the slabs, so c is dead once the first one runs: the
	// listeners of this round are the slice as it stands now.
	keyed := c.listeners
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
	c := w.objects[obj].cell(attr)
	c.listeners = append(c.listeners, l)
}

// SubscribeAll attaches a listener to every world event (an omniscient
// observer; used by oracles and traces, not by realistic sensors).
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
