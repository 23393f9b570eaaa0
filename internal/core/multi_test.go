package core

import (
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/network"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

func TestMultiCheckerFansOut(t *testing.T) {
	m := NewMultiChecker(2, map[string]predicate.Cond{
		"pw":  predicate.MustParse("pw@0 == 1"),
		"bio": predicate.MustParse("bio@1 == 1"),
	}, true)

	// Password pulse at sensor 0, then biometric pulse at sensor 1.
	m.OnStrobe(handStrobe(0, 1, "pw", 1, clock.Vector{1, 0}), 10)
	m.OnStrobe(handStrobe(0, 2, "pw", 0, clock.Vector{2, 0}), 20)
	m.OnStrobe(handStrobe(1, 1, "bio", 1, clock.Vector{2, 1}), 30)
	m.OnStrobe(handStrobe(1, 2, "bio", 0, clock.Vector{2, 2}), 40)
	m.Finish(100)

	pw := m.Occurrences("pw")
	bio := m.Occurrences("bio")
	if len(pw) != 1 || pw[0].Start != 10 || pw[0].End != 20 {
		t.Fatalf("pw %v", pw)
	}
	if len(bio) != 1 || bio[0].Start != 30 || bio[0].End != 40 {
		t.Fatalf("bio %v", bio)
	}
	spans := m.Spans("pw")
	if len(spans) != 1 || spans[0].Lo != 10 || spans[0].Hi != 20 {
		t.Fatalf("spans %v", spans)
	}
	if m.Occurrences("nope") != nil {
		t.Fatal("unknown name returned occurrences")
	}
	if len(m.order) != 2 || m.order[0] != "bio" || m.order[1] != "pw" {
		t.Fatalf("names %v not deterministic", m.order)
	}
}

func TestMultiCheckerOnTransport(t *testing.T) {
	eng := sim.NewEngine(1)
	nt := network.New(eng, network.FullMesh{Nodes: 3}, sim.Synchronous{})
	m := NewMultiChecker(2, map[string]predicate.Cond{
		"a": predicate.MustParse("x@0 > 0"),
	}, true)
	m.Register(nt, 2)
	eng.At(5, func(sim.Time) {
		nt.Send(0, 2, StrobeMsg{Proc: 0, Seq: 1, Var: "x", Value: 1, Vec: clock.Vector{1, 0}})
	})
	eng.RunAll()
	m.Finish(100)
	if len(m.Occurrences("a")) != 1 {
		t.Fatal("transport-registered multichecker missed the strobe")
	}
}

func TestMultiCheckerCheckerAccessorAndFinish(t *testing.T) {
	m := NewMultiChecker(1, map[string]predicate.Cond{
		"a": predicate.MustParse("x@0 > 0"),
	}, false) // scalar variant
	if m.Checker("a") == nil || m.Checker("zzz") != nil {
		t.Fatal("Checker accessor broken")
	}
	m.OnStrobe(StrobeMsg{Proc: 0, Seq: 1, Var: "x", Value: 1, Scalar: 1}, 5)
	m.Finish(100)
	occ := m.Occurrences("a")
	if len(occ) != 1 || occ[0].End != 100 {
		t.Fatalf("finish did not close: %v", occ)
	}
	// Double finish is a no-op.
	m.Finish(200)
	if m.Occurrences("a")[0].End != 100 {
		t.Fatal("double finish moved the end")
	}
}
