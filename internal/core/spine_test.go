package core

import (
	"testing"

	"pervasive/internal/faults"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
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
