package core

import (
	"reflect"
	"testing"

	"pervasive/internal/network"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// TestSenseAllocations pins what one sense event costs the heap. On the
// sharded transport, which recycles, a warm diff-vector sense costs
// nothing: the body, its message and the stamp's array come back to the
// pool when the last copy lands, and the next sense takes them. On
// network.Net, which does not, a sense costs the body with the message
// inside it (network.NewBody), plus the stamp for the kinds whose stamp is
// a slice. The deliveries cost nothing — the receivers merge from the
// body's message — as long as the stamp names only peers the receiver
// already knows, which the warm-up arranges: the sensing sensor strobes
// alone, so its stamp is its own component.
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

	// A scalar sense and a physical report on network.Net: the scalar stamp
	// is a word inside the message, and a report is one direct send.
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
		{PhysicalReport, func(nt *network.Net, eng *sim.Engine) func() int64 {
			c := NewPhysicalChecker(eng, 4, pred, sim.Millisecond)
			c.Register(nt, 4)
			return c.Applied
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
		if allocs := testing.AllocsPerRun(runs, sense); allocs != 1 {
			t.Errorf("%v sense and its deliveries: %.1f allocs, want 1 (the body with the message)", tc.kind, allocs)
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

// TestOnlyDiffVectorSensesTakePooledBodies pins the gate that keeps two
// classic handlers safe on a recycling transport: the conjunctive checker
// queues the interval stamps it is delivered and the flat checker keeps a
// dense strobe's stamp, both past the handler's return. They may, because
// NewSensors hands the transport's pool to a DiffVectorStrobe fleet alone
// and a sensor with a Local replica, which reads its strobe after the send,
// does not take from it. Every kind senses on ShardedNet while the checker's
// node keeps each delivered message: a pooled body shows as a kept message
// a later sense overwrote.
func TestOnlyDiffVectorSensesTakePooledBodies(t *testing.T) {
	const n, senses = 4, 16
	pred := predicate.MustParse("p@0 >= 1")
	for _, tc := range []struct {
		kind   ClockKind
		local  bool
		pooled bool
	}{
		{VectorStrobe, false, false},
		{ScalarStrobe, false, false},
		{PhysicalReport, false, false},
		{DiffVectorStrobe, true, false},
		{DiffVectorStrobe, false, true},
	} {
		label := tc.kind.String()
		if tc.local {
			label += "+Local"
		}
		delay := sim.DeltaBounded{Min: 2, Max: 4}
		sh := sim.NewShards(1, delay.Min, 7)
		sn := network.NewSharded(sh, network.FullMesh{Nodes: n + 1}, delay, network.ShardMap{Procs: n + 1, Shards: 1}, 7)
		sensors := NewSensors(sn, SensorConfig{N: n, Kind: tc.kind, CheckerIdx: n},
			func(int) Transport { return sn.Part(0) })
		if got := sensors[0].f.pool != nil; got != (tc.kind == DiffVectorStrobe) {
			t.Errorf("%s: fleet holds the transport's pool: %v", label, got)
		}
		if tc.local {
			sensors[0].Local = newStrobeChecker(n, pred, false)
		}
		type kept struct {
			seq *int
			was int
		}
		var msgs []kept
		sn.Register(n, func(m network.Message, _ sim.Time) {
			switch p := m.Payload.(type) {
			case *StrobeMsg:
				msgs = append(msgs, kept{&p.Seq, p.Seq})
			case *ReportMsg:
				msgs = append(msgs, kept{&p.Seq, p.Seq})
			}
		})
		for i := range senses {
			sensors[0].Sense(sh.Now(), "p", float64(i&1))
			sh.RunAll()
		}
		if len(msgs) != senses {
			t.Fatalf("%s: the checker was delivered %d messages, want %d", label, len(msgs), senses)
		}
		overwritten := 0
		for _, k := range msgs {
			if *k.seq != k.was {
				overwritten++
			}
		}
		if tc.pooled && overwritten == 0 {
			t.Errorf("%s: no delivered body was reused in %d senses; the pooled path is not exercised", label, senses)
		}
		if !tc.pooled && overwritten != 0 {
			t.Errorf("%s: %d delivered messages were overwritten by later senses: a pooled body reached a classic handler", label, overwritten)
		}
	}
}
