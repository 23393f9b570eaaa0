package core

import (
	"reflect"
	"testing"

	"pervasive/internal/checker"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// TestSenseAllocations pins what one sense event costs the heap. Both DES
// transports recycle, so a warm sense costs nothing: the body, its message
// and a dense or sparse stamp's array come back to the transport's pool
// when the last copy lands, and the next sense takes them. The deliveries
// cost nothing either — the receivers merge from the body's message, and
// the checkers copy what they keep into arrays of their own — as long as
// the stamp names only peers the receiver already knows, which the warm-up
// arranges: the sensing sensor strobes alone, so its stamp is its own
// component.
func TestSenseAllocations(t *testing.T) {
	const runs = 100 // AllocsPerRun calls once more, to warm up
	delay := sim.DeltaBounded{Min: 2, Max: 4}

	// A diff-vector sense on the sharded stack, a 16×16 grid. Sensor 17
	// is interior; at S = 2 the checker (256) is on the other shard.
	for _, shards := range []int{1, 2} {
		const side, n = 16, 256
		smap := network.ShardMap{Procs: n + 1, Shards: shards}
		sh := sim.NewShards(shards, delay.Min, 7)
		sn := network.NewSharded(sh, network.Grid{Rows: side, Cols: side}, delay, smap, 7)
		sn.NeighborScope = true
		sn.AlwaysReach = []int{n}
		sensors := NewSensors(sn, SensorConfig{N: n, Kind: DiffVectorStrobe, CheckerIdx: n},
			func(i int) Transport { return sn.Part(smap.Of(i)) })
		checker := NewScalarChecker(n, predicate.MustParse("p@17 >= 2"))
		checker.Register(sn, n)
		s, eng := sensors[17], sh.Engine(smap.Of(17))
		sense := func() { s.Sense(eng.Now(), "p", 1); sh.RunAll() }
		for range 8 { // receivers learn sensor 17; pools, heaps and mailboxes reach their size
			sense()
		}
		if allocs := testing.AllocsPerRun(runs, sense); allocs != 0 {
			t.Errorf("S=%d: diff-vector sense and its 5 deliveries: %.1f allocs, want 0 (a recycled body, message and stamp)", shards, allocs)
		}
		if got, want := checker.Applied, int64(8+runs+1); got != want {
			t.Errorf("S=%d: checker applied %d strobes, want %d", shards, got, want)
		}
	}

	// A scalar and a dense-vector sense and a physical report on
	// network.Net: the scalar stamp is a word inside the message, the
	// vector's array is the dead strobe's, which the race-aware flat
	// checker copies from, and a report is one direct send.
	pred := predicate.MustParse("x@0 >= 2")
	for _, tc := range []struct {
		kind     ClockKind
		register func(nt *network.Net, eng *sim.Engine) func() int64
	}{
		{ScalarStrobe, func(nt *network.Net, _ *sim.Engine) func() int64 {
			c := NewScalarChecker(4, pred)
			c.Register(nt, 4)
			return func() int64 { return c.Applied }
		}},
		{VectorStrobe, func(nt *network.Net, _ *sim.Engine) func() int64 {
			c := NewVectorChecker(4, pred)
			c.Register(nt, 4)
			return func() int64 { return c.Applied }
		}},
		{PhysicalReport, func(nt *network.Net, eng *sim.Engine) func() int64 {
			c := NewPhysicalChecker(eng, 4, pred, sim.Millisecond)
			reg := obs.NewRegistry()
			c.SetObs(reg)
			c.Register(nt, 4)
			return reg.Counter("checker.reports_applied").Value
		}},
	} {
		eng := sim.NewEngine(7)
		nt := network.New(eng, network.FullMesh{Nodes: 5}, delay)
		applied := tc.register(nt, eng)
		sensors := NewSensors(nt, SensorConfig{N: 4, Kind: tc.kind, CheckerIdx: 4},
			func(int) Transport { return nt })
		sense := func() { sensors[0].Sense(eng.Now(), "x", 1); eng.RunAll() }
		for range 8 {
			sense()
		}
		if allocs := testing.AllocsPerRun(runs, sense); allocs != 0 {
			t.Errorf("%v sense and its deliveries: %.1f allocs, want 0 (a recycled body and message)", tc.kind, allocs)
		}
		if got, want := applied(), int64(8+runs+1); got != want {
			t.Errorf("%v: checker applied %d, want %d", tc.kind, got, want)
		}
	}
}

// TestCorePayloadsAreNotValues: the core payloads implement network.Payload
// on their pointer only, so a value cannot be sent by mistake and every
// receiver asserts the one form a delivery takes.
func TestCorePayloadsAreNotValues(t *testing.T) {
	payload := reflect.TypeFor[network.Payload]()
	for _, v := range []any{StrobeMsg{}, ReportMsg{}, IntervalMsg{}} {
		typ := reflect.TypeOf(v)
		if typ.Implements(payload) {
			t.Errorf("%v implements network.Payload by value", typ)
		}
		if !reflect.PointerTo(typ).Implements(payload) {
			t.Errorf("*%v does not implement network.Payload", typ)
		}
	}
}

// TestSensesTakePooledBodiesUnlessTheyKeep pins the gate that keeps a
// recycled body away from the one sender that reads its strobe after the
// send: a sensor with a Local replica (a body can go back to the pool
// inside the send). Every other sensor, of every kind, on both DES
// transports, takes its body from the transport's pool — a fleet built
// with Record too, whose run record copies the dense stamp it keeps, so
// its recorded stamps must survive the reuse. The checker's node keeps
// each delivered message past the handler's return, which a handler must
// not do, and so sees a pooled body as a kept message a later sense
// overwrote — exactly where bodies are pooled.
func TestSensesTakePooledBodiesUnlessTheyKeep(t *testing.T) {
	const n, senses = 4, 16
	pred := predicate.MustParse("p@0 >= 1")
	delay := sim.DeltaBounded{Min: 2, Max: 4}
	transports := []struct {
		name  string
		build func() (Receiver, func(int) Transport, func() sim.Time, func() sim.Time)
	}{
		{"Net", func() (Receiver, func(int) Transport, func() sim.Time, func() sim.Time) {
			eng := sim.NewEngine(7)
			nt := network.New(eng, network.FullMesh{Nodes: n + 1}, delay)
			return nt, func(int) Transport { return nt }, eng.Now, eng.RunAll
		}},
		{"ShardedNet", func() (Receiver, func(int) Transport, func() sim.Time, func() sim.Time) {
			sh := sim.NewShards(1, delay.Min, 7)
			sn := network.NewSharded(sh, network.FullMesh{Nodes: n + 1}, delay, network.ShardMap{Procs: n + 1, Shards: 1}, 7)
			return sn, func(int) Transport { return sn.Part(0) }, sh.Now, sh.RunAll
		}},
	}
	for _, tr := range transports {
		for _, kind := range []ClockKind{VectorStrobe, ScalarStrobe, PhysicalReport, DiffVectorStrobe} {
			for _, keeper := range []string{"", "Local", "Record"} {
				label := tr.name + "/" + kind.String()
				if keeper != "" {
					label += "+" + keeper
				}
				rx, place, now, run := tr.build()
				sensors := NewSensors(rx, SensorConfig{N: n, Kind: kind, CheckerIdx: n, Record: keeper == "Record"}, place)
				if sensors[0].f.pool == nil {
					t.Errorf("%s: the fleet does not hold the transport's pool", label)
				}
				if keeper == "Local" {
					sensors[0].Local = checker.New(checker.Config{N: n, Pred: pred})
				}
				// Each delivered payload, with a test of whether a later
				// sense has overwritten it.
				var msgs []func() bool
				rx.Register(n, func(m network.Message, _ sim.Time) {
					switch p := m.Payload.(type) {
					case *StrobeMsg:
						was := p.Seq
						msgs = append(msgs, func() bool { return p.Seq != was })
					case *ReportMsg:
						was := *p
						msgs = append(msgs, func() bool { return *p != was })
					}
				})
				for i := range senses {
					sensors[0].Sense(now(), "p", float64(i&1))
					run()
				}
				if len(msgs) != senses {
					t.Fatalf("%s: the checker was delivered %d messages, want %d", label, len(msgs), senses)
				}
				overwritten := 0
				for _, changed := range msgs {
					if changed() {
						overwritten++
					}
				}
				if pooled := keeper != "Local"; pooled && overwritten == 0 {
					t.Errorf("%s: no delivered body was reused in %d senses; the pooled path is not exercised", label, senses)
				} else if !pooled && overwritten != 0 {
					t.Errorf("%s: %d delivered messages were overwritten by later senses: a pooled body reached a sender that keeps its strobe", label, overwritten)
				}
				// The sensor strobes alone, so the i-th recorded stamp
				// reads i+1 in its own component.
				if keeper == "Record" && (kind == VectorStrobe || kind == DiffVectorStrobe) {
					for i, ev := range sensors[0].c.senses {
						if len(ev.Vector) != n || ev.Vector[0] != uint64(i+1) {
							t.Errorf("%s: recorded stamp %d reads %v, want %d in component 0: the run record shares a recycled stamp", label, i, ev.Vector, i+1)
							break
						}
					}
				}
			}
		}
	}
}
