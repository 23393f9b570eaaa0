package core

import (
	"reflect"
	"strings"
	"testing"

	"pervasive/internal/faults"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/world"
)

// TestFaultInstallParityAcrossHarnesses runs one crash/recover plan through
// both harnesses: the shared installer must leave the same transition
// counters and one closed faults.down.p2 span of the outage's virtual
// duration in each registry.
func TestFaultInstallParityAcrossHarnesses(t *testing.T) {
	const crashAt, recoverAt = 300 * sim.Millisecond, 900 * sim.Millisecond
	plan := func() *faults.Plan { return faults.NewPlan().Crash(2, crashAt).Recover(2, recoverAt) }

	classic := obs.NewRegistry()
	NewHarness(HarnessConfig{
		Seed: 1, N: 8, Kind: VectorStrobe, Delay: sim.NewDeltaBounded(5 * sim.Millisecond),
		Pred: predicate.MustParse("x@0 >= 1"), Horizon: 2 * sim.Second,
		Faults: plan(), Obs: classic,
	}).Run()

	sharded := obs.NewRegistry()
	NewShardedHarness(ShardedConfig{
		Seed: 1, N: 16, Shards: 4, Workers: 2, Horizon: 2 * sim.Second,
		Faults: plan(), Obs: sharded,
	}).Run()

	for name, reg := range map[string]*obs.Registry{"Harness": classic, "ShardedHarness": sharded} {
		snap := reg.Snapshot()
		counters := map[string]int64{}
		for _, c := range snap.Counters {
			counters[c.Name] = c.Value
		}
		if counters["faults.crashes"] != 1 || counters["faults.recoveries"] != 1 {
			t.Errorf("%s: crashes %d, recoveries %d; want 1, 1",
				name, counters["faults.crashes"], counters["faults.recoveries"])
		}
		var down []obs.SpanSnap
		for _, s := range snap.Spans {
			if s.Name == "faults.down.p2" {
				down = append(down, s)
			}
		}
		if len(down) != 1 || down[0].End-down[0].Start != recoverAt-crashAt {
			t.Errorf("%s: faults.down.p2 spans %+v; want one of %v", name, down, sim.Duration(recoverAt-crashAt))
		}
	}
}

// TestCheckersRegisterOnShardedNet: every Register method takes the
// receiving surface both transports have, so each checker shape consumes
// its traffic off a ShardedNet exactly as off a Net.
func TestCheckersRegisterOnShardedNet(t *testing.T) {
	pred := predicate.MustParse("x@0 >= 1")
	strobe := StrobeMsg{Proc: 0, Seq: 1, Var: "x", Value: 1, Scalar: 1}
	cases := []struct {
		name     string
		payload  network.Payload
		register func(net Receiver, eng *sim.Engine, idx int) (applied func() int64)
	}{
		{"StrobeChecker", strobe, func(net Receiver, _ *sim.Engine, idx int) func() int64 {
			c := NewScalarChecker(2, pred)
			c.Register(net, idx)
			return func() int64 { return c.Applied }
		}},
		{"PhysicalChecker", ReportMsg{Proc: 0, Seq: 1, Var: "x", Value: 1, TS: 1}, func(net Receiver, eng *sim.Engine, idx int) func() int64 {
			c := NewPhysicalChecker(eng, 2, pred, sim.Millisecond)
			c.Register(net, idx)
			return c.Applied
		}},
		{"MultiChecker", strobe, func(net Receiver, _ *sim.Engine, idx int) func() int64 {
			m := NewMultiChecker(2, map[string]predicate.Cond{"a": pred}, false)
			m.Register(net, idx)
			return func() int64 { return m.Checker("a").Applied }
		}},
	}
	for _, tc := range cases {
		delay := sim.NewDeltaBounded(sim.Millisecond)
		sh := sim.NewShards(2, sim.MinDelayBound(delay), 1)
		smap := network.ShardMap{Procs: 3, Shards: 2}
		sn := network.NewSharded(sh, network.FullMesh{Nodes: 3}, delay, smap, 1)
		const idx = 2 // the checker's node, on the other shard from sensor 0
		applied := tc.register(sn, sh.Engine(smap.Of(idx)), idx)
		sh.Engine(0).At(0, func(sim.Time) { sn.Part(0).Send(0, idx, tc.payload) })
		sh.RunAll()
		if got := applied(); got != 1 {
			t.Errorf("%s on ShardedNet: applied %d deliveries, want 1", tc.name, got)
		}
	}
}

// TestTruthAdapterKeepsBindingSemantics pins what the classic stack's truth
// adapter must preserve: an attribute bound at two sensors backs both
// variables, a variable bound twice reads its last binding, an unbound
// variable reads 0, and an attribute no sensor is bound to resolves to
// nothing without allocating.
func TestTruthAdapterKeepsBindingSemantics(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHarness(HarnessConfig{
		Seed: 1, N: 4, Kind: VectorStrobe, Delay: sim.NewDeltaBounded(sim.Millisecond),
		Pred: predicate.MustParse("x@0 + x@1 + x@2 + x@3 >= 3"), Horizon: 100 * sim.Millisecond, Obs: reg,
	})
	a := h.World.AddObject("a", nil)
	b := h.World.AddObject("b", nil)
	h.Bind(0, a, "v", "x")
	h.Bind(1, a, "v", "x") // the same attribute at a second sensor
	h.Bind(2, a, "v", "x")
	h.Bind(2, b, "v", "x") // rebound: x@2 now reads b.v only
	// x@3 stays unbound
	at := func(ms int, f func()) { h.Eng.At(sim.Time(ms)*sim.Millisecond, func(sim.Time) { f() }) }
	at(10, func() { h.World.Set(a, "v", 1) })      // x@0 = x@1 = 1: sum 2
	at(20, func() { h.World.Set(b, "v", 1) })      // x@2 = 1: sum 3
	at(30, func() { h.World.Set(b, "unread", 9) }) // no sensor senses it
	at(40, func() { h.World.Set(a, "v", 0) })      // sum 1
	res := h.Run()
	want := []world.Interval{{Start: 20 * sim.Millisecond, End: 40 * sim.Millisecond}}
	if !reflect.DeepEqual(res.Truth, want) {
		t.Errorf("truth %v, want %v", res.Truth, want)
	}
	if n := reg.Counter("oracle.events").Value(); n != 4 {
		t.Errorf("oracle.events = %d, want 4", n)
	}
	if n := reg.Counter("oracle.demoted_clauses").Value(); n != 0 {
		t.Errorf("oracle.demoted_clauses = %d, want 0", n)
	}

	keysOf := h.truthKeys()
	buf := make([]predicate.Key, 0, 4)
	if got := keysOf(buf, a, "v"); !reflect.DeepEqual(got, []predicate.Key{{Proc: 0, Name: "x"}, {Proc: 1, Name: "x"}}) {
		t.Errorf("a.v backs %v, want x@0 and x@1", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = keysOf(buf[:0], b, "unread") }); allocs != 0 || len(buf) != 0 {
		t.Errorf("unread attribute: %v allocs, keys %v; want 0 and none", allocs, buf)
	}
}

// TestOracleCountersOnShardedRun: a sharded run says on its registry that
// it was scored incrementally — every pilot log event replayed, no clause
// demoted — and the counters stay out of the CounterLines digest surface.
func TestOracleCountersOnShardedRun(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewShardedHarness(ShardedConfig{
		Seed: 3, N: 64, Shards: 4, Pilot: 64, PilotK: 20, CheckerFanout: 4,
		Horizon: sim.Second, Obs: reg,
	})
	res := h.Run()
	if len(res.Truth) == 0 {
		t.Fatal("no ground-truth intervals; the test needs a predicate that flips")
	}
	if got, want := reg.Counter("oracle.events").Value(), int64(len(h.mergedPilotLog())); got != want || got == 0 {
		t.Errorf("oracle.events = %d, want the pilot log's %d", got, want)
	}
	// one comparison at t = 0 and at most one per event: never a whole
	// re-evaluation per term
	if got, max := reg.Counter("oracle.clause_evals").Value(), reg.Counter("oracle.events").Value()+1; got > max {
		t.Errorf("oracle.clause_evals = %d, want <= %d", got, max)
	}
	if got := reg.Counter("oracle.demoted_clauses").Value(); got != 0 {
		t.Errorf("oracle.demoted_clauses = %d, want 0", got)
	}
	for _, line := range h.CounterLines() {
		if strings.HasPrefix(line, "oracle.") {
			t.Errorf("CounterLines carries %q", line)
		}
	}
}
