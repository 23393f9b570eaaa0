package world

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// plane is the surface the differential test drives: World, and the
// map-based model below that states what World must do.
type plane interface {
	AddObject(name string, attrs map[string]float64) int
	Get(obj int, attr string) float64
	Set(obj int, attr string, v float64)
	Subscribe(obj int, attr string, l Listener)
	SubscribeAll(l Listener)
	Log() []Event
	StateAt(t sim.Time) map[AttrKey]float64
}

// mapPlane is the reference: one map of values per object and one global
// map of listeners, the obvious implementation the attribute cells replace.
type mapPlane struct {
	eng       *sim.Engine
	attrs     []map[string]float64
	listeners map[AttrKey][]Listener
	all       []Listener
	log       []Event
}

func (m *mapPlane) AddObject(_ string, attrs map[string]float64) int {
	a := maps.Clone(attrs)
	if a == nil {
		a = map[string]float64{}
	}
	m.attrs = append(m.attrs, a)
	return len(m.attrs) - 1
}
func (m *mapPlane) Get(obj int, attr string) float64 { return m.attrs[obj][attr] }
func (m *mapPlane) Set(obj int, attr string, v float64) {
	ev := Event{Seq: len(m.log), At: m.eng.Now(), Object: obj, Attr: attr,
		Old: m.attrs[obj][attr], New: v, Cause: NoCause}
	m.attrs[obj][attr] = v
	m.log = append(m.log, ev)
	for _, l := range m.listeners[AttrKey{obj, attr}] {
		l(ev)
	}
	for _, l := range m.all {
		l(ev)
	}
}
func (m *mapPlane) Subscribe(obj int, attr string, l Listener) {
	k := AttrKey{obj, attr}
	m.listeners[k] = append(m.listeners[k], l)
}
func (m *mapPlane) SubscribeAll(l Listener) { m.all = append(m.all, l) }
func (m *mapPlane) Log() []Event            { return m.log }
func (m *mapPlane) StateAt(t sim.Time) map[AttrKey]float64 {
	state := make(map[AttrKey]float64)
	for _, ev := range m.log {
		if ev.At <= t {
			state[AttrKey{ev.Object, ev.Attr}] = ev.New
		}
	}
	return state
}

// drive applies the op sequence drawn from seed to p and returns everything
// observable along the way: each Get, and each listener call in call order.
// Both planes get the same draws because nothing drawn depends on p.
func drive(p plane, eng *sim.Engine, seed uint64) []string {
	r := stats.NewRNG(seed)
	attrs := []string{"a", "b", "c", "d", "e", "f"}
	var trace []string
	nextListener := 0
	recorder := func() Listener {
		id := nextListener
		nextListener++
		return func(ev Event) { trace = append(trace, fmt.Sprintf("l%d %+v", id, ev)) }
	}
	// grower: on its first call it sets a brand-new attribute of the same
	// object — the cell slice grows, and may move, under the Set that is
	// calling it — subscribes to it and sets it again, nesting a firing;
	// then it subscribes a late listener to the attribute being fired, which
	// the nested Set must call and the round in progress must not.
	grower := func() Listener {
		id := nextListener
		nextListener++
		inner, late := recorder(), recorder()
		grown := false
		return func(ev Event) {
			trace = append(trace, fmt.Sprintf("g%d %+v", id, ev))
			if grown {
				return
			}
			grown = true
			fresh := fmt.Sprintf("grown%d", id)
			p.Set(ev.Object, fresh, ev.New+1)
			p.Subscribe(ev.Object, fresh, inner)
			p.Set(ev.Object, fresh, p.Get(ev.Object, fresh)+0.5)
			p.Subscribe(ev.Object, ev.Attr, late)
			p.Set(ev.Object, ev.Attr, ev.New+100) // re-enters the attribute being fired
		}
	}

	objs := 0
	addObject := func() {
		var init map[string]float64
		if r.Bool(0.5) {
			init = map[string]float64{}
			for k := r.Intn(4); k >= 0; k-- {
				init[attrs[r.Intn(len(attrs))]] = float64(r.Intn(9) - 4)
			}
		}
		if got := p.AddObject("o", init); got != objs {
			trace = append(trace, fmt.Sprintf("AddObject returned %d, want %d", got, objs))
		}
		objs++
	}
	addObject()
	for step := 0; step < 400; step++ {
		if r.Bool(0.3) {
			eng.AdvanceTo(eng.Now() + sim.Time(r.Intn(5)))
		}
		obj, attr := r.Intn(objs), attrs[r.Intn(len(attrs))]
		switch op := r.Intn(20); {
		case op < 1:
			addObject()
		case op < 8:
			p.Set(obj, attr, float64(r.Intn(9)-4))
		case op < 11:
			p.Set(obj, attr, p.Get(obj, attr)+float64(r.Intn(3)-1))
		case op < 14:
			trace = append(trace, fmt.Sprintf("get %d.%s = %v", obj, attr, p.Get(obj, attr)))
		case op < 17:
			p.Subscribe(obj, attr, recorder())
		case op < 19:
			p.Subscribe(obj, attr, grower())
		default:
			p.SubscribeAll(recorder())
		}
	}
	for obj := 0; obj < objs; obj++ {
		for _, attr := range append(attrs, "never") {
			trace = append(trace, fmt.Sprintf("final %d.%s = %v", obj, attr, p.Get(obj, attr)))
		}
	}
	return trace
}

// TestCellsMatchMapModel drives World and the map-based model through the
// same drawn sequence — objects with and without initial attributes, Set
// (absolute and read-modify-write) and Get of set and never-set attributes, Subscribe before and after
// the first Set, SubscribeAll, and listeners that grow the object they are
// being fired for — and requires the same values, the same listener calls
// in the same order, and the same log.
func TestCellsMatchMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		engW, engM := sim.NewEngine(seed), sim.NewEngine(seed)
		w := New(engW)
		m := &mapPlane{eng: engM, listeners: map[AttrKey][]Listener{}}
		got, want := drive(w, engW, seed), drive(m, engM, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, model has %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d, observation %d:\n got %s\nwant %s", seed, i, got[i], want[i])
			}
		}
		if !reflect.DeepEqual(w.Log(), m.Log()) {
			t.Fatalf("seed %d: logs diverge (%d vs %d events)", seed, len(w.Log()), len(m.Log()))
		}
		for _, at := range []sim.Time{0, engW.Now() / 3, engW.Now() / 2, engW.Now()} {
			if !reflect.DeepEqual(w.StateAt(at), m.StateAt(at)) {
				t.Fatalf("seed %d: StateAt(%v) diverges", seed, at)
			}
		}
	}
}

// TestLogBelowBoundsTheLogByObject: under a bound only objects below it are
// logged, every listener still fires, and DiscardLog is the bound 0.
func TestLogBelowBoundsTheLogByObject(t *testing.T) {
	w := New(sim.NewEngine(1))
	var objs [4]int
	for i := range objs {
		objs[i] = w.AddObject("o", nil)
	}
	fired := 0
	w.SubscribeAll(func(Event) { fired++ })
	w.LogBelow(2)
	for _, o := range objs {
		w.Set(o, "p", 1)
	}
	if fired != 4 {
		t.Fatalf("%d listener calls, want 4: a bound must not silence listeners", fired)
	}
	log := w.Log()
	if len(log) != 2 || log[0].Object != 0 || log[1].Object != 1 {
		t.Fatalf("log under LogBelow(2) = %+v, want objects 0 and 1", log)
	}
	if log[0].Seq != 0 || log[1].Seq != 1 {
		t.Fatalf("logged events have Seq %d, %d; want their log positions", log[0].Seq, log[1].Seq)
	}
	w.DiscardLog()
	w.Set(0, "p", 2)
	if len(w.Log()) != 2 || fired != 5 {
		t.Fatalf("after DiscardLog: %d logged, %d fired; want 2, 5", len(w.Log()), fired)
	}
}

// TestSetAllocations: a Set that fires one subscriber and logs nothing — the
// fleet's steady state, every non-pilot object — allocates nothing.
func TestSetAllocations(t *testing.T) {
	w := New(sim.NewEngine(1))
	w.AddObject("pilot", nil)
	o := w.AddObject("o", nil)
	fired := 0
	w.Subscribe(o, "p", func(Event) { fired++ })
	w.LogBelow(o)
	w.Set(o, "p", 1) // first touch creates nothing more: Subscribe made the cell
	if allocs := testing.AllocsPerRun(100, func() { w.Set(o, "p", float64(fired&1)) }); allocs != 0 {
		t.Errorf("Set with one subscriber, log bounded away: %.1f allocs, want 0", allocs)
	}
	if fired != 102 || len(w.Log()) != 0 {
		t.Errorf("%d listener calls, %d logged; want 102, 0", fired, len(w.Log()))
	}
}

// BenchmarkWorldSetFleet is world.Set at fleet-wide's size, read at -cpu 1:
// 65 536 objects with one subscriber each and the log bounded to a pilot of
// 8, set round-robin so each Set finds its object's cell cold.
func BenchmarkWorldSetFleet(b *testing.B) {
	const n = 65536
	w := New(sim.NewEngine(1))
	fired := make([]int32, n)
	for i := 0; i < n; i++ {
		o := w.AddObject("o", nil)
		w.Subscribe(o, "p", func(Event) { fired[o]++ })
	}
	w.LogBelow(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Set(i%n, "p", float64(i&1))
	}
}
