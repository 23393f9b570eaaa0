package network

import (
	"testing"

	"pervasive/internal/sim"
)

// Churn tests: the overlay L is "a dynamically changing graph" (§2.1);
// the transport must respect link changes that happen mid-run.

func TestFloodUsesNewLinks(t *testing.T) {
	m := NewMutable(3)
	m.AddLink(0, 1)
	eng := sim.NewEngine(1)
	nt := New(eng, m, sim.Synchronous{})
	nt.Flood = true
	got := make(map[int]int)
	for i := 0; i < 3; i++ {
		i := i
		nt.Register(i, func(Message, sim.Time) { got[i]++ })
	}
	eng.At(0, func(sim.Time) { nt.Broadcast(0, Raw{}) }) // node 2 unreachable
	eng.At(10, func(sim.Time) { m.AddLink(1, 2) })
	eng.At(20, func(sim.Time) { nt.Broadcast(0, Raw{}) }) // now reachable
	eng.RunAll()
	if got[2] != 1 {
		t.Fatalf("node 2 received %d broadcasts, want 1", got[2])
	}
}

func TestDirectBroadcastIgnoresOverlay(t *testing.T) {
	// Direct System-wide_Broadcast treats L as routable regardless of
	// links — the strobe protocols' abstraction.
	m := NewMutable(3) // no links at all
	eng := sim.NewEngine(1)
	nt := New(eng, m, sim.Synchronous{})
	count := 0
	nt.Register(2, func(Message, sim.Time) { count++ })
	eng.At(0, func(sim.Time) { nt.Broadcast(0, Raw{}) })
	eng.RunAll()
	if count != 1 {
		t.Fatalf("direct broadcast delivered %d", count)
	}
}

func TestFloodDeliversOncePerBroadcastOnDenseGraph(t *testing.T) {
	// Duplicate suppression under many redundant paths.
	eng := sim.NewEngine(2)
	nt := New(eng, FullMesh{Nodes: 8}, sim.DeltaBounded{Min: 1, Max: 20})
	nt.Flood = true
	counts := make([]int, 8)
	for i := range counts {
		i := i
		nt.Register(i, func(Message, sim.Time) { counts[i]++ })
	}
	for k := 0; k < 5; k++ {
		k := k
		eng.At(sim.Time(k*1000), func(sim.Time) { nt.Broadcast(k%8, Raw{}) })
	}
	eng.RunAll()
	for i, c := range counts {
		sentBySelf := 0
		for k := 0; k < 5; k++ {
			if k%8 == i {
				sentBySelf++
			}
		}
		if c != 5-sentBySelf {
			t.Fatalf("node %d received %d (want %d)", i, c, 5-sentBySelf)
		}
	}
}
