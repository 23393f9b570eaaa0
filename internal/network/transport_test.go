package network

import (
	"testing"

	"pervasive/internal/sim"
)

func newTestNet(topo Topology, delay sim.DelayModel) (*sim.Engine, *Net) {
	eng := sim.NewEngine(7)
	return eng, New(eng, topo, delay)
}

func TestDirectSendDelivers(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 3}, sim.DeltaBounded{Min: 5, Max: 5})
	var got []Message
	var at sim.Time
	nt.Register(2, func(m Message, now sim.Time) { got = append(got, m); at = now })
	eng.At(10, func(sim.Time) { nt.Send(0, 2, Raw{K: "test", Size: 4}) })
	eng.RunAll()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages", len(got))
	}
	m := got[0]
	if m.Src != 0 || m.Dst != 2 || m.SentAt != 10 {
		t.Fatalf("message %+v", m)
	}
	if at != 15 {
		t.Fatalf("delivery time %v want 15", at)
	}
	if nt.Stats.Sent != 1 || nt.Stats.Delivered != 1 || nt.Stats.Dropped != 0 {
		t.Fatalf("stats %+v", nt.Stats)
	}
	if nt.Stats.Bytes != int64(4+headerBytes) {
		t.Fatalf("bytes %d", nt.Stats.Bytes)
	}
	if nt.Stats.ByKind["test"] != 1 {
		t.Fatal("per-kind count missing")
	}
}

func TestDirectBroadcast(t *testing.T) {
	eng, nt := newTestNet(Ring{Nodes: 5}, sim.Synchronous{})
	counts := make([]int, 5)
	for i := 0; i < 5; i++ {
		i := i
		nt.Register(i, func(Message, sim.Time) { counts[i]++ })
	}
	eng.At(0, func(sim.Time) { nt.Broadcast(2, Raw{Size: 1}) })
	eng.RunAll()
	for i, c := range counts {
		want := 1
		if i == 2 {
			want = 0
		}
		if c != want {
			t.Fatalf("process %d received %d", i, c)
		}
	}
	if nt.Stats.Sent != 4 {
		t.Fatalf("direct broadcast sent %d link messages", nt.Stats.Sent)
	}
}

func TestFloodBroadcastReachesAllOnSparseGraph(t *testing.T) {
	eng, nt := newTestNet(Ring{Nodes: 8}, sim.DeltaBounded{Min: 1, Max: 3})
	nt.Flood = true
	counts := make([]int, 8)
	for i := range counts {
		i := i
		nt.Register(i, func(Message, sim.Time) { counts[i]++ })
	}
	eng.At(0, func(sim.Time) { nt.Broadcast(0, Raw{Size: 2}) })
	eng.RunAll()
	for i, c := range counts {
		want := 1
		if i == 0 {
			want = 0
		}
		if c != want {
			t.Fatalf("flood: process %d received %d times (dup suppression?)", i, c)
		}
	}
}

func TestFloodHopsIncrease(t *testing.T) {
	eng, nt := newTestNet(Ring{Nodes: 6}, sim.Synchronous{})
	nt.Flood = true
	hops := make(map[int]int)
	for i := 0; i < 6; i++ {
		i := i
		nt.Register(i, func(m Message, _ sim.Time) { hops[i] = m.Hops })
	}
	eng.At(0, func(sim.Time) { nt.Broadcast(0, Raw{}) })
	eng.RunAll()
	if hops[1] != 1 || hops[5] != 1 {
		t.Fatalf("direct ring neighbours should be 1 hop: %v", hops)
	}
	if hops[3] != 3 {
		t.Fatalf("opposite node should be 3 hops: %v", hops)
	}
}

func TestFloodDoesNotCrossPartitions(t *testing.T) {
	m := NewMutable(4)
	m.AddLink(0, 1) // 2,3 isolated
	eng, nt := newTestNet(m, sim.Synchronous{})
	nt.Flood = true
	reached := make([]bool, 4)
	for i := range reached {
		i := i
		nt.Register(i, func(Message, sim.Time) { reached[i] = true })
	}
	eng.At(0, func(sim.Time) { nt.Broadcast(0, Raw{}) })
	eng.RunAll()
	if !reached[1] || reached[2] || reached[3] {
		t.Fatalf("partition breach: %v", reached)
	}
}

func TestLossCounted(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 2}, sim.WithLoss{Inner: sim.Synchronous{}, P: 1})
	delivered := 0
	nt.Register(1, func(Message, sim.Time) { delivered++ })
	eng.At(0, func(sim.Time) { nt.Send(0, 1, Raw{}) })
	eng.RunAll()
	if delivered != 0 || nt.Stats.Dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, nt.Stats.Dropped)
	}
}

func TestUnregisteredHandlerIsSafe(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 2}, sim.Synchronous{})
	eng.At(0, func(sim.Time) { nt.Send(0, 1, Raw{}) })
	eng.RunAll() // must not panic
	if nt.Stats.Delivered != 1 {
		t.Fatal("delivery not counted")
	}
}

func TestMessageIDsUniquePerLogicalSend(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 3}, sim.Synchronous{})
	ids := make(map[uint64][]int)
	for i := 0; i < 3; i++ {
		i := i
		nt.Register(i, func(m Message, _ sim.Time) { ids[m.ID] = append(ids[m.ID], i) })
	}
	eng.At(0, func(sim.Time) {
		nt.Broadcast(0, Raw{})
		nt.Send(1, 2, Raw{})
	})
	eng.RunAll()
	if len(ids) != 2 {
		t.Fatalf("expected 2 distinct IDs, got %v", ids)
	}
}

func TestSetDelayMidRun(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 2}, sim.Synchronous{})
	var times []sim.Time
	nt.Register(1, func(_ Message, now sim.Time) { times = append(times, now) })
	eng.At(0, func(sim.Time) { nt.Send(0, 1, Raw{}) })
	eng.At(10, func(sim.Time) {
		nt.SetDelay(sim.DeltaBounded{Min: 100, Max: 100})
		nt.Send(0, 1, Raw{})
	})
	eng.RunAll()
	if len(times) != 2 || times[0] != 0 || times[1] != 110 {
		t.Fatalf("times %v", times)
	}
}

func BenchmarkDirectBroadcast32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(uint64(i))
		nt := New(eng, FullMesh{Nodes: 32}, sim.DeltaBounded{Min: 1, Max: 10})
		for p := 0; p < 32; p++ {
			nt.Register(p, func(Message, sim.Time) {})
		}
		for k := 0; k < 100; k++ {
			k := k
			eng.At(sim.Time(k), func(sim.Time) { nt.Broadcast(k%32, Raw{Size: 8}) })
		}
		eng.RunAll()
	}
}
