package core

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// TestFleetFootprint pins what a sharded fleet costs per sensor: its slab
// entry, and no heap object of its own at build — one delivery handler per
// fleet, one world listener per shard, RNG streams by value, one world
// column per attribute rather than a cell per object — plus a flat checker
// that keeps no race-only arrays when it is race-blind, and a build that
// reads its workload in place rather than copying it per shard.
func TestFleetFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Sensor{}); sz > 104 {
		t.Errorf("Sensor slab entry is %d bytes, budget 104", sz)
	}

	// Heap objects and bytes allocated by build, the minimum of three so
	// that a stray background allocation cannot fail the test.
	least := func(build func() any) (objects, bytes uint64) {
		objects, bytes = ^uint64(0), ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			h := build()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(h)
			objects = min(objects, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return objects, bytes
	}

	// One build, then one Set of every object, of an attribute no sensor
	// senses (so no strobe is sent). The horizon is short, so the workload
	// adds next to nothing and the count is the fleet's wiring plus the
	// world's first touch of an attribute on every object.
	touched := func(n int) uint64 {
		objects, _ := least(func() any {
			h := NewShardedHarness(ShardedConfig{Seed: 1, N: n, Horizon: sim.Millisecond})
			for o := 0; o < n; o++ {
				h.Worlds[0].Set(o, "q", 1)
			}
			return h
		})
		return objects
	}
	small, large := touched(1024), touched(4096)
	if per := (float64(large) - float64(small)) / (4096 - 1024); per >= 0.05 {
		t.Errorf("build and a Set per object allocate %.3f heap objects per added sensor (%d at N=1024, %d at N=4096); want < 0.05",
			per, small, large)
	}

	// Bytes a build allocates per workload event, past the fleet: the same
	// fleet over a short and a long stream of one toggler fleet.
	const n, horizon = 1024, 8 * sim.Second
	fleet := workload.TogglerFleet{Seed: 3, N: n, Attr: "p",
		MeanHigh: 300 * sim.Millisecond, MeanLow: 500 * sim.Millisecond}
	short, long := fleet.Events(horizon/8), fleet.Events(horizon)
	for _, shards := range []int{1, 4} {
		build := func(evs []workload.Event) uint64 {
			_, bytes := least(func() any {
				return NewShardedHarness(ShardedConfig{Seed: 1, N: n, Shards: shards,
					Horizon: horizon, Workload: workload.EventSource(evs)})
			})
			return bytes
		}
		a, b := build(short), build(long)
		if per := (float64(b) - float64(a)) / float64(len(long)-len(short)); per >= 8 {
			t.Errorf("S=%d: build allocates %.1f B per workload event (%d B over %d events, %d B over %d); want < 8",
				shards, per, a, len(short), b, len(long))
		}
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

// TestSenseSeqBound: a sensor counts its sense events of one epoch in 32
// bits, so the 2^31-1st sense is the last it sends; the next one panics
// rather than wrap to a sequence number the checker would discard as
// stale.
func TestSenseSeqBound(t *testing.T) {
	h := NewShardedHarness(ShardedConfig{Seed: 1, N: 2, Horizon: sim.Millisecond})
	s := h.Sensors[0]
	s.seq = math.MaxInt32 - 1
	s.Sense(0, "p", 1)
	if s.seq != math.MaxInt32 {
		t.Fatalf("seq %d after a sense from 2^31-2, want 2^31-1", s.seq)
	}
	defer func() {
		if p := recover(); p != errSeqBound {
			t.Fatalf("the sense past 2^31-1 recovered %v, want the %q panic", p, errSeqBound)
		}
	}()
	s.Sense(0, "p", 0)
}
