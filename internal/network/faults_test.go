package network

import (
	"testing"

	"pervasive/internal/faults"
	"pervasive/internal/sim"
)

func TestCrashedProcessNeitherSendsNorReceives(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 3}, sim.Synchronous{})
	plan := faults.NewPlan().Crash(1, 10).Recover(1, 20)
	nt.SetFaults(faults.NewInjector(plan))
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		nt.Register(i, func(Message, sim.Time) { counts[i]++ })
	}
	eng.At(5, func(sim.Time) { nt.Broadcast(1, Raw{Size: 1}) })  // up: delivers to 0 and 2
	eng.At(12, func(sim.Time) { nt.Broadcast(1, Raw{Size: 1}) }) // down: suppressed
	eng.At(15, func(sim.Time) { nt.Send(0, 1, Raw{Size: 1}) })   // down dst: dropped
	eng.At(25, func(sim.Time) { nt.Send(0, 1, Raw{Size: 1}) })   // recovered: delivers
	eng.RunAll()
	if counts[0] != 1 || counts[2] != 1 {
		t.Fatalf("peers received %v", counts)
	}
	if counts[1] != 1 {
		t.Fatalf("crashed process received %d deliveries, want 1 post-recovery", counts[1])
	}
	f := nt.Faults()
	if f.Counts.SuppressedSends.Load() != 1 {
		t.Fatalf("suppressed sends %d", f.Counts.SuppressedSends.Load())
	}
	if f.Counts.CrashDrops.Load() != 1 {
		t.Fatalf("crash drops %d", f.Counts.CrashDrops.Load())
	}
	if id := nt.Broadcast(1, Raw{Size: 1}); id == 0 {
		t.Fatal("recovered process should send again")
	}
}

func TestPartitionCutsBothDirectAndFloodTraffic(t *testing.T) {
	plan := faults.NewPlan().Partition([][]int{{0, 1}, {2, 3}}, 0, 100)
	for _, flood := range []bool{false, true} {
		eng, nt := newTestNet(Ring{Nodes: 4}, sim.Synchronous{})
		nt.Flood = flood
		nt.SetFaults(faults.NewInjector(plan))
		counts := make([]int, 4)
		for i := 0; i < 4; i++ {
			i := i
			nt.Register(i, func(Message, sim.Time) { counts[i]++ })
		}
		eng.At(10, func(sim.Time) { nt.Broadcast(0, Raw{Size: 1}) })
		eng.RunAll()
		if counts[1] != 1 {
			t.Fatalf("flood=%v: same-group peer received %d", flood, counts[1])
		}
		if counts[2] != 0 || counts[3] != 0 {
			t.Fatalf("flood=%v: traffic crossed the partition: %v", flood, counts)
		}
		if nt.Faults().Counts.PartitionDrops.Load() == 0 {
			t.Fatalf("flood=%v: no partition drops counted", flood)
		}
		// After the window heals, traffic crosses again.
		eng.At(150, func(sim.Time) { nt.Broadcast(0, Raw{Size: 1}) })
		eng.RunAll()
		if counts[2] != 1 || counts[3] != 1 {
			t.Fatalf("flood=%v: post-heal delivery missing: %v", flood, counts)
		}
	}
}

func TestDuplicateWindowRedelivers(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 2}, sim.DeltaBounded{Min: 1, Max: 9})
	plan := faults.NewPlan().Duplicate(0, sim.Never, 1.0) // always duplicate
	nt.SetFaults(faults.NewInjector(plan))
	got := 0
	nt.Register(1, func(Message, sim.Time) { got++ })
	eng.At(0, func(sim.Time) { nt.Send(0, 1, Raw{Size: 1}) })
	eng.RunAll()
	if got != 2 {
		t.Fatalf("deliveries %d, want original + duplicate", got)
	}
	if nt.Faults().Counts.Duplicates.Load() != 1 {
		t.Fatalf("duplicates %d", nt.Faults().Counts.Duplicates.Load())
	}
	if nt.Stats.Sent != 1 {
		t.Fatalf("duplicates must not count as sends: %d", nt.Stats.Sent)
	}
}

func TestReorderWindowJittersDelays(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 2}, sim.Synchronous{})
	plan := faults.NewPlan().Reorder(0, sim.Never, 50)
	nt.SetFaults(faults.NewInjector(plan))
	var ats []sim.Time
	nt.Register(1, func(_ Message, now sim.Time) { ats = append(ats, now) })
	for i := 0; i < 20; i++ {
		at := sim.Time(i * 100)
		eng.At(at, func(sim.Time) { nt.Send(0, 1, Raw{Size: 1}) })
	}
	eng.RunAll()
	jittered := false
	for i, at := range ats {
		d := at - sim.Time(i*100)
		if d < 0 || d > 50 {
			t.Fatalf("delivery %d jitter %v outside [0,50]", i, d)
		}
		if d > 0 {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("no message got reorder jitter")
	}
	if nt.Faults().Counts.Reorders.Load() == 0 {
		t.Fatal("reorders not counted")
	}
}

// TestFloodDedupStaysBounded is the regression test for the dedup memory
// leak: before pruning, every flooded broadcast left one seen-map entry
// per process forever. With the in-flight horizon, entries vanish as soon
// as a broadcast's last copy lands.
func TestFloodDedupStaysBounded(t *testing.T) {
	eng, nt := newTestNet(Grid{Rows: 3, Cols: 3}, sim.DeltaBounded{Min: 1, Max: 5})
	nt.Flood = true
	for i := 0; i < 9; i++ {
		nt.Register(i, func(Message, sim.Time) {})
	}
	const rounds = 200
	maxLive := 0
	for r := 0; r < rounds; r++ {
		at := sim.Time(r * 100) // spaced beyond the max flood settle time
		src := r % 9
		eng.At(at, func(sim.Time) { nt.Broadcast(src, Raw{Size: 1}) })
	}
	// Interleave settling checks by running round by round.
	for r := 0; r < rounds; r++ {
		eng.Run(sim.Time((r + 1) * 100))
		if n := nt.dedupEntries(); n > maxLive {
			maxLive = n
		}
	}
	eng.RunAll()
	if n := nt.dedupEntries(); n != 0 {
		t.Fatalf("%d dedup entries survive after all floods settled", n)
	}
	// Bounded by in-flight broadcasts (≤1 here × 9 procs), not by rounds.
	if maxLive > 2*9 {
		t.Fatalf("live dedup entries peaked at %d; leak not bounded by in-flight traffic", maxLive)
	}
	if nt.Stats.Delivered != rounds*8 {
		t.Fatalf("pruning broke dedup: %d deliveries, want %d", nt.Stats.Delivered, rounds*8)
	}
}

// TestFloodMasksSingleLinkLoss pins down the redundancy property the
// delivery-time dedup buys (§4.2.2 graceful degradation): on a cycle, a
// dead link between 0 and 1 does not stop 1 from hearing 0's flooded
// strobes via the other arc, whereas a direct broadcast on the same lossy
// link loses them.
func TestFloodMasksSingleLinkLoss(t *testing.T) {
	lossy := sim.LinkLoss{Inner: sim.DeltaBounded{Min: 1, Max: 3}, A: 0, B: 1, P: 1}

	eng, nt := newTestNet(Ring{Nodes: 4}, lossy)
	nt.Flood = true
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		nt.Register(i, func(Message, sim.Time) { counts[i]++ })
	}
	const casts = 10
	for r := 0; r < casts; r++ {
		eng.At(sim.Time(r*100), func(sim.Time) { nt.Broadcast(0, Raw{Size: 1}) })
	}
	eng.RunAll()
	if counts[1] != casts || counts[2] != casts || counts[3] != casts {
		t.Fatalf("flood failed to mask the dead link: %v", counts)
	}

	// Same link, direct broadcast: node 1 hears nothing.
	engD, ntD := newTestNet(FullMesh{Nodes: 4}, lossy)
	countsD := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		ntD.Register(i, func(Message, sim.Time) { countsD[i]++ })
	}
	for r := 0; r < casts; r++ {
		engD.At(sim.Time(r*100), func(sim.Time) { ntD.Broadcast(0, Raw{Size: 1}) })
	}
	engD.RunAll()
	if countsD[1] != 0 {
		t.Fatalf("direct broadcast crossed a dead link: %v", countsD)
	}
	if countsD[2] != casts || countsD[3] != casts {
		t.Fatalf("unaffected links lost traffic: %v", countsD)
	}
}

func TestCrashedReceiverDoesNotRelayFlood(t *testing.T) {
	// Line 0-1-2: with 1 down, 2 is unreachable by flooding from 0.
	topo := NewMutable(3)
	topo.AddLink(0, 1)
	topo.AddLink(1, 2)
	eng, nt := newTestNet(topo, sim.Synchronous{})
	nt.Flood = true
	nt.SetFaults(faults.NewInjector(faults.NewPlan().Crash(1, 0)))
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		nt.Register(i, func(Message, sim.Time) { counts[i]++ })
	}
	eng.At(10, func(sim.Time) { nt.Broadcast(0, Raw{Size: 1}) })
	eng.RunAll()
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("crashed relay forwarded traffic: %v", counts)
	}
}

// TestDupReorderParityAcrossTransports pins the fault contract both
// transports share: reorder jitter applies to every copy scheduled in the
// window, duplicate-window copies included. Under dup(…,1.0);reorder(…)
// each send yields two jittered copies, so Reorders = sends + duplicates on
// the single-heap Net and on the sharded transport alike.
func TestDupReorderParityAcrossTransports(t *testing.T) {
	const sends = 20
	delay := sim.DeltaBounded{Min: 2, Max: 4}
	plan := faults.NewPlan().Duplicate(0, sim.Never, 1.0).Reorder(0, sim.Never, 50)
	check := func(name string, f *faults.Injector, sent, delivered int64) {
		t.Helper()
		dups, reorders := f.Counts.Duplicates.Load(), f.Counts.Reorders.Load()
		if sent != sends || dups != sends || delivered != 2*sends {
			t.Fatalf("%s: sent %d, duplicates %d, delivered %d; want %d, %d, %d",
				name, sent, dups, delivered, sends, sends, 2*sends)
		}
		if reorders != sent+dups {
			t.Fatalf("%s: %d reorders, want sends + duplicates = %d", name, reorders, sent+dups)
		}
	}

	eng, nt := newTestNet(FullMesh{Nodes: 2}, delay)
	nt.SetFaults(faults.NewInjector(plan))
	for i := 0; i < sends; i++ { // first send at t = 0
		eng.At(sim.Time(i*100), func(sim.Time) { nt.Send(0, 1, Raw{Size: 1}) })
	}
	eng.RunAll()
	check("Net", nt.Faults(), nt.Stats.Sent, nt.Stats.Delivered)

	sh := sim.NewShards(2, delay.Min, 7)
	sn := NewSharded(sh, FullMesh{Nodes: 2}, delay, ShardMap{Procs: 2, Shards: 2}, 7)
	in := faults.NewInjector(plan)
	sn.SetFaults(in)
	for i := 0; i < sends; i++ {
		sh.Engine(0).At(sim.Time(i*100), func(sim.Time) { sn.Part(0).Send(0, 1, Raw{Size: 1}) })
	}
	sh.RunAll()
	st := sn.TotalStats()
	check("ShardedNet", in, st.Sent, st.Delivered)
}
