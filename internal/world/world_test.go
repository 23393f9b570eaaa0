package world

import (
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

func TestSetGetAndLog(t *testing.T) {
	eng := sim.NewEngine(1)
	w := New(eng)
	room := w.AddObject("room", map[string]float64{"temp": 20})
	if w.Get(room, "temp") != 20 {
		t.Fatal("initial attribute lost")
	}
	eng.At(100, func(sim.Time) { w.Set(room, "temp", 31) })
	eng.RunAll()
	if w.Get(room, "temp") != 31 {
		t.Fatal("Set did not apply")
	}
	log := w.Log()
	if len(log) != 1 {
		t.Fatalf("log has %d events", len(log))
	}
	ev := log[0]
	if ev.At != 100 || ev.Old != 20 || ev.New != 31 || ev.Cause != NoCause {
		t.Fatalf("event %+v", ev)
	}
}

func TestSubscribe(t *testing.T) {
	eng := sim.NewEngine(1)
	w := New(eng)
	a := w.AddObject("a", nil)
	b := w.AddObject("b", nil)
	var got []Event
	w.Subscribe(a, "x", func(ev Event) { got = append(got, ev) })
	w.Set(a, "x", 1)
	w.Set(a, "y", 1) // different attribute: not delivered
	w.Set(b, "x", 1) // different object: not delivered
	if len(got) != 1 || got[0].Object != a || got[0].Attr != "x" {
		t.Fatalf("subscription saw %v", got)
	}
	var all int
	w.SubscribeAll(func(Event) { all++ })
	w.Set(b, "y", 5)
	if all != 1 {
		t.Fatal("SubscribeAll missed an event")
	}
}

func TestCovertRuleCausality(t *testing.T) {
	eng := sim.NewEngine(1)
	w := New(eng)
	wind := w.AddObject("wind", nil)
	fire := w.AddObject("fire", nil)
	w.AddCovertRule(CovertRule{
		SrcObj: wind, SrcAttr: "gust",
		DstObj: fire, DstAttr: "spread",
		Prob: 1, Delay: stats.Constant{V: float64(50 * sim.Millisecond)},
	})
	eng.At(0, func(sim.Time) { w.Set(wind, "gust", 1) })
	eng.RunAll()
	log := w.Log()
	if len(log) != 2 {
		t.Fatalf("expected 2 events, got %d", len(log))
	}
	effect := log[1]
	if effect.Object != fire || effect.Cause != log[0].Seq {
		t.Fatalf("covert effect %+v", effect)
	}
	if effect.At != 50*sim.Millisecond {
		t.Fatalf("covert delay: event at %v", effect.At)
	}
	if effect.New != 1 {
		t.Fatal("default transform should copy source value")
	}
}

func TestCovertRuleTransformAndProb(t *testing.T) {
	eng := sim.NewEngine(2)
	w := New(eng)
	a := w.AddObject("a", nil)
	b := w.AddObject("b", nil)
	w.AddCovertRule(CovertRule{
		SrcObj: a, SrcAttr: "x", DstObj: b, DstAttr: "y",
		Prob: 1, Delay: stats.Constant{V: 0},
		Transform: func(src, old float64) float64 { return old + 2*src },
	})
	eng.At(0, func(sim.Time) { w.Set(a, "x", 3) })
	eng.RunAll()
	if w.Get(b, "y") != 6 {
		t.Fatalf("transform result %v", w.Get(b, "y"))
	}

	// Prob 0 never fires.
	eng2 := sim.NewEngine(2)
	w2 := New(eng2)
	a2 := w2.AddObject("a", nil)
	b2 := w2.AddObject("b", nil)
	w2.AddCovertRule(CovertRule{
		SrcObj: a2, SrcAttr: "x", DstObj: b2, DstAttr: "y",
		Prob: 0, Delay: stats.Constant{V: 0},
	})
	eng2.At(0, func(sim.Time) { w2.Set(a2, "x", 3) })
	eng2.RunAll()
	if len(w2.Log()) != 1 {
		t.Fatal("prob-0 rule fired")
	}
}

func TestCovertChains(t *testing.T) {
	// a → b → c builds a causal chain; CausalPairs(transitive) includes a→c.
	eng := sim.NewEngine(3)
	w := New(eng)
	a := w.AddObject("a", nil)
	b := w.AddObject("b", nil)
	c := w.AddObject("c", nil)
	w.AddCovertRule(CovertRule{SrcObj: a, SrcAttr: "x", DstObj: b, DstAttr: "x",
		Prob: 1, Delay: stats.Constant{V: 10}})
	w.AddCovertRule(CovertRule{SrcObj: b, SrcAttr: "x", DstObj: c, DstAttr: "x",
		Prob: 1, Delay: stats.Constant{V: 10}})
	eng.At(0, func(sim.Time) { w.Set(a, "x", 1) })
	eng.RunAll()

	direct := CausalPairs(w.Log(), false)
	if len(direct) != 2 {
		t.Fatalf("direct pairs %v", direct)
	}
	trans := CausalPairs(w.Log(), true)
	if len(trans) != 3 {
		t.Fatalf("transitive pairs %v", trans)
	}
	want := [2]int{0, 2}
	found := false
	for _, p := range trans {
		if p == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("transitive pair %v missing from %v", want, trans)
	}
}

func TestStateAt(t *testing.T) {
	eng := sim.NewEngine(1)
	w := New(eng)
	o := w.AddObject("o", nil)
	eng.At(10, func(sim.Time) { w.Set(o, "v", 1) })
	eng.At(20, func(sim.Time) { w.Set(o, "v", 2) })
	eng.RunAll()
	if s := w.StateAt(15); s[AttrKey{o, "v"}] != 1 {
		t.Fatalf("state at 15: %v", s)
	}
	if s := w.StateAt(20); s[AttrKey{o, "v"}] != 2 {
		t.Fatalf("state at 20: %v", s)
	}
	if s := w.StateAt(5); s[AttrKey{o, "v"}] != 0 {
		t.Fatalf("state at 5: %v", s)
	}
}

func TestTrueIntervals(t *testing.T) {
	eng := sim.NewEngine(1)
	w := New(eng)
	o := w.AddObject("o", nil)
	eng.At(10, func(sim.Time) { w.Set(o, "v", 1) })
	eng.At(30, func(sim.Time) { w.Set(o, "v", 0) })
	eng.At(50, func(sim.Time) { w.Set(o, "v", 1) })
	eng.RunAll()
	pred := func(get func(int, string) float64) bool { return get(o, "v") > 0 }
	ivs := TrueIntervals(w.Log(), pred, 100)
	if len(ivs) != 2 {
		t.Fatalf("intervals %v", ivs)
	}
	if ivs[0] != (Interval{10, 30}) || ivs[1] != (Interval{50, 100}) {
		t.Fatalf("intervals %v", ivs)
	}
}

func TestTrueIntervalsSimultaneousBatch(t *testing.T) {
	// Two simultaneous changes that individually flip the predicate but
	// jointly cancel must not produce a zero-length blip.
	eng := sim.NewEngine(1)
	w := New(eng)
	a := w.AddObject("a", nil)
	b := w.AddObject("b", nil)
	eng.At(10, func(sim.Time) {
		w.Set(a, "v", 1)
		w.Set(b, "v", -1)
	})
	eng.RunAll()
	pred := func(get func(int, string) float64) bool {
		return get(a, "v")+get(b, "v") > 0
	}
	ivs := TrueIntervals(w.Log(), pred, 100)
	if len(ivs) != 0 {
		t.Fatalf("atomic batch produced blip: %v", ivs)
	}
}

func TestTrueIntervalsHorizon(t *testing.T) {
	eng := sim.NewEngine(1)
	w := New(eng)
	o := w.AddObject("o", nil)
	eng.At(10, func(sim.Time) { w.Set(o, "v", 1) })
	eng.At(500, func(sim.Time) { w.Set(o, "v", 0) })
	eng.RunAll()
	pred := func(get func(int, string) float64) bool { return get(o, "v") > 0 }
	ivs := TrueIntervals(w.Log(), pred, 100)
	if len(ivs) != 1 || ivs[0] != (Interval{10, 100}) {
		t.Fatalf("horizon clipping: %v", ivs)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{10, 20}
	if !iv.Contains(10) || iv.Contains(20) || !iv.Contains(15) {
		t.Fatal("Contains is wrong at boundaries")
	}
	if d := iv.Overlap(Interval{15, 30}); d != 5 {
		t.Fatalf("overlap %v", d)
	}
	if d := iv.Overlap(Interval{20, 30}); d != 0 {
		t.Fatalf("touching intervals overlap %v", d)
	}
	if d := iv.Overlap(Interval{0, 100}); d != 10 {
		t.Fatalf("containment overlap %v", d)
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	w := New(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad object id")
		}
	}()
	w.Set(5, "x", 1)
}
