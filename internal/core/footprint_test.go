package core

import (
	"runtime"
	"testing"
	"unsafe"

	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// TestFleetFootprint pins what a sharded fleet costs per sensor: its slab
// entry, and no heap object of its own at build — one delivery handler per
// fleet, one world listener per shard, RNG streams by value — plus a flat
// checker that keeps no race-only arrays when it is race-blind.
func TestFleetFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Sensor{}); sz > 168 {
		t.Errorf("Sensor slab entry is %d bytes, budget 168", sz)
	}

	// Heap objects allocated by one build, the minimum of three so that a
	// stray background allocation cannot fail the test. The horizon is
	// short, so the workload adds next to nothing and the count is the
	// fleet's wiring.
	objects := func(n int) uint64 {
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			h := NewShardedHarness(ShardedConfig{Seed: 1, N: n, Horizon: sim.Millisecond})
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(h)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	small, large := objects(1024), objects(4096)
	if per := (float64(large) - float64(small)) / (4096 - 1024); per >= 0.05 {
		t.Errorf("build allocates %.3f heap objects per added sensor (%d at N=1024, %d at N=4096); want < 0.05",
			per, small, large)
	}

	c := newStrobeChecker(65536, PilotPred(8, 5), false)
	if c.stamps != nil || c.lastChange != nil {
		t.Errorf("race-blind checker at n=65536 holds race arrays: stamps %d, lastChange %d",
			len(c.stamps), len(c.lastChange))
	}
}

// TestFleetSensesOnlyP holds the per-shard listener to the binding it
// replaced: sensor i senses its object's "p" and nothing else. A trace
// that also moves a second attribute on every fleet object runs more world
// events but sends exactly the strobes the "p"-only trace does, at S = 1 and
// across shards.
func TestFleetSensesOnlyP(t *testing.T) {
	const n, horizon = 24, 2 * sim.Second
	p := workload.TogglerFleet{Seed: 7, N: n, Attr: "p",
		MeanHigh: 300 * sim.Millisecond, MeanLow: 500 * sim.Millisecond}
	q := workload.TogglerFleet{Seed: 8, N: n, Attr: "q",
		MeanHigh: 200 * sim.Millisecond, MeanLow: 200 * sim.Millisecond}
	run := func(shards int, src workload.Source) (sent int64, executed uint64) {
		h := NewShardedHarness(ShardedConfig{
			Seed: 42, N: n, Shards: shards,
			Delay:   sim.NewDeltaBounded(5 * sim.Millisecond),
			Horizon: horizon, Workload: src,
		})
		h.Run()
		return h.Net.TotalStats().Sent, h.Sh.ExecutedTotal()
	}
	for _, shards := range []int{1, 4} {
		wantSent, plain := run(shards, p)
		gotSent, mixed := run(shards, workload.Combine(p, q))
		if wantSent == 0 {
			t.Fatalf("S=%d: the p-only trace sent nothing", shards)
		}
		if mixed <= plain {
			t.Fatalf("S=%d: the q events did not run (%d executed, %d without them)", shards, mixed, plain)
		}
		if gotSent != wantSent {
			t.Errorf("S=%d: net.sent %d with q events, %d without", shards, gotSent, wantSent)
		}
	}
}
