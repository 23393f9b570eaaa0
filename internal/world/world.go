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
	"maps"
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

// Object is a passive world-plane entity. Objects have no clock and no
// network presence (Section 2.1's distinguishing features).
type Object struct {
	ID    int
	Name  string
	attrs map[string]float64
}

// World is the ⟨O, C⟩ plane.
type World struct {
	eng       *sim.Engine
	rng       *stats.RNG
	objects   []*Object
	log       []Event
	discard   bool
	listeners map[AttrKey][]Listener
	all       []Listener
	rules     []CovertRule
}

// New creates an empty world on the given engine.
func New(eng *sim.Engine) *World {
	return &World{
		eng:       eng,
		rng:       eng.RNG().Fork(),
		listeners: make(map[AttrKey][]Listener),
	}
}

// AddObject creates an object with the given initial attributes and
// returns its ID.
func (w *World) AddObject(name string, attrs map[string]float64) int {
	o := &Object{ID: len(w.objects), Name: name, attrs: maps.Clone(attrs)}
	if o.attrs == nil {
		o.attrs = map[string]float64{}
	}
	w.objects = append(w.objects, o)
	return o.ID
}

// Name returns the object's name.
func (w *World) Name(obj int) string { return w.objects[obj].Name }

// Get returns the current value of an attribute (0 if never set).
func (w *World) Get(obj int, attr string) float64 {
	return w.objects[obj].attrs[attr]
}

// Set changes an attribute spontaneously at the current engine time.
func (w *World) Set(obj int, attr string, v float64) {
	w.set(obj, attr, v, NoCause)
}

// Add increments an attribute spontaneously.
func (w *World) Add(obj int, attr string, dv float64) {
	w.set(obj, attr, w.Get(obj, attr)+dv, NoCause)
}

func (w *World) set(obj int, attr string, v float64, cause int) {
	if obj < 0 || obj >= len(w.objects) {
		panic(fmt.Sprintf("world: object %d out of range", obj))
	}
	o := w.objects[obj]
	old := o.attrs[attr]
	o.attrs[attr] = v
	ev := Event{
		Seq: len(w.log), At: w.eng.Now(),
		Object: obj, Attr: attr, Old: old, New: v, Cause: cause,
	}
	if !w.discard {
		w.log = append(w.log, ev)
	}
	w.fire(ev)
	w.applyRules(ev)
}

func (w *World) fire(ev Event) {
	for _, l := range w.listeners[AttrKey{ev.Object, ev.Attr}] {
		l(ev)
	}
	for _, l := range w.all {
		l(ev)
	}
}

// Subscribe attaches a listener to one attribute of one object. This
// models a sensor whose range covers the object; the listener runs at the
// true event time on the engine.
func (w *World) Subscribe(obj int, attr string, l Listener) {
	k := AttrKey{obj, attr}
	w.listeners[k] = append(w.listeners[k], l)
}

// SubscribeAll attaches a listener to every world event (an omniscient
// observer; used by oracles and traces, not by realistic sensors).
func (w *World) SubscribeAll(l Listener) { w.all = append(w.all, l) }

// Log returns the ground-truth event log so far. The returned slice is the
// live log; callers must not modify it.
func (w *World) Log() []Event { return w.log }

// DiscardLog stops recording ground-truth events from now on; listeners
// still fire. Sharded scale runs call it on shards whose objects are
// outside the scored pilot set, so ground-truth memory tracks the pilot,
// not the fleet. Event.Seq/Cause bookkeeping stops with the log, so worlds
// with covert rules should keep logging.
func (w *World) DiscardLog() { w.discard = true }

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

// TotalTrueTime sums the durations of the intervals.
func TotalTrueTime(ivs []Interval) sim.Duration {
	var d sim.Duration
	for _, iv := range ivs {
		d += iv.End - iv.Start
	}
	return d
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
