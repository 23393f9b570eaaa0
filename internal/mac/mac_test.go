package mac

import (
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

func TestAlignedNoDriftStaysAligned(t *testing.T) {
	res := Run(Config{
		N: 6, Seed: 1, Period: sim.Second, Window: 100 * sim.Millisecond,
		DriftPPM: 0, Sync: false, Horizon: 5 * sim.Minute,
	})
	if res.Overlap < 0.99 {
		t.Fatalf("drift-free aligned timers lost alignment: overlap %.3f", res.Overlap)
	}
	if res.Beacons != 0 {
		t.Fatal("sync disabled but beacons sent")
	}
}

func TestDriftDestroysRendezvousWithoutSync(t *testing.T) {
	// ±80 ppm over 30 minutes slides timers by ~±145 ms — beyond the
	// 100 ms window; unsynchronized overlap collapses.
	res := Run(Config{
		N: 6, Seed: 2, Period: sim.Second, Window: 100 * sim.Millisecond,
		DriftPPM: 80, Sync: false, Horizon: 30 * sim.Minute,
	})
	if res.Overlap > 0.6 {
		t.Fatalf("drift should destroy rendezvous: overlap %.3f", res.Overlap)
	}
}

func TestSyncRestoresRendezvousUnderDrift(t *testing.T) {
	cfg := Config{
		N: 6, Seed: 2, Period: sim.Second, Window: 100 * sim.Millisecond,
		DriftPPM: 80, Horizon: 30 * sim.Minute,
	}
	cfg.Sync = false
	unsynced := Run(cfg)
	cfg.Sync = true
	synced := Run(cfg)
	if synced.Overlap < 0.9 {
		t.Fatalf("beacon sync failed: overlap %.3f", synced.Overlap)
	}
	if synced.Overlap <= unsynced.Overlap {
		t.Fatalf("sync (%.3f) not better than free-running (%.3f)",
			synced.Overlap, unsynced.Overlap)
	}
	if synced.Beacons == 0 {
		t.Fatal("sync ran without beacons")
	}
}

func TestSyncPullsRandomPhasesTogether(t *testing.T) {
	// Nodes start at random phases across the whole period; periodic
	// full-period listen scans let nodes hear beacons outside their
	// window and converge to the earliest phase.
	cfg := Config{
		N: 5, Seed: 3, Period: sim.Second, Window: 300 * sim.Millisecond,
		DriftPPM: 20, MaxPhase: sim.Second, Horizon: 20 * sim.Minute,
		ScanEvery: 8,
	}
	cfg.Sync = true
	synced := Run(cfg)
	cfg.Sync = false
	unsynced := Run(cfg)
	if synced.Overlap <= unsynced.Overlap {
		t.Fatalf("sync (%.3f) not better than free-running (%.3f) from random phases",
			synced.Overlap, unsynced.Overlap)
	}
	if synced.Overlap < 0.7 {
		t.Fatalf("random phases did not converge: %.3f", synced.Overlap)
	}
}

func TestWakeCountsMatchPeriods(t *testing.T) {
	res := Run(Config{
		N: 4, Seed: 4, Period: sim.Second, Window: 50 * sim.Millisecond,
		Horizon: sim.Minute,
	})
	// ~60 wakes per node: without drift or scans each is one 50ms
	// window of radio-on time.
	perNode := res.AwakeFraction * float64(sim.Minute) / float64(50*sim.Millisecond)
	if perNode < 55 || perNode > 65 {
		t.Fatalf("wakes per node %.1f, want ~60", perNode)
	}
}

func TestDefaults(t *testing.T) {
	res := Run(Config{Seed: 5, Horizon: 30 * sim.Second})
	if res.AwakeFraction == 0 {
		t.Fatal("defaults produced no wakes")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{N: 5, Seed: 6, DriftPPM: 50, Sync: true, Horizon: 2 * sim.Minute}
	a, b := Run(cfg), Run(cfg)
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// quadraticOverlap is meanPairwiseOverlap as it was first written: every
// span of b against every span of a in the final quarter.
func quadraticOverlap(nodes []*node, horizon sim.Time) float64 {
	from := horizon - horizon/4
	var acc stats.Online
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			var awakeA, both sim.Duration
			for i := 0; i+1 < len(a.awake); i += 2 {
				lo, hi := a.awake[i], a.awake[i+1]
				if hi <= from {
					continue
				}
				if lo < from {
					lo = from
				}
				awakeA += hi - lo
				for j := 0; j+1 < len(b.awake); j += 2 {
					olo, ohi := maxT(lo, b.awake[j]), minT(hi, b.awake[j+1])
					if ohi > olo {
						both += ohi - olo
					}
				}
			}
			if awakeA > 0 {
				acc.Add(float64(both) / float64(awakeA))
			}
		}
	}
	return acc.Mean()
}

// TestOverlapMatchesQuadraticScan draws span lists the way Run records
// them — wake times non-decreasing per node, most spans one window long,
// some a full-period scan that a re-armed wake then interrupts, so a span
// can end after its successor does — and holds the windowed scan to the
// quadratic one, bit for bit.
func TestOverlapMatchesQuadraticScan(t *testing.T) {
	const period, window = 1000, 100
	r := stats.NewRNG(41)
	interrupted, straddling := 0, 0
	for round := 0; round < 300; round++ {
		horizon := sim.Time(8*period + r.Intn(8*period))
		from := horizon - horizon/4
		nodes := make([]*node, 2+r.Intn(4))
		for k := range nodes {
			nd := &node{id: k}
			at := sim.Time(1 + r.Intn(period))
			for at <= horizon {
				end := at + window
				next := at + period
				if r.Intn(4) == 0 { // scan: listen for a full period
					end = at + period
					if r.Intn(2) == 0 { // a beacon re-arms the wake inside it
						next = at + sim.Time(1+r.Intn(period-1))
						interrupted++
					}
				} else if r.Intn(8) == 0 {
					next = at + sim.Time(r.Intn(window)) // re-armed inside a plain window, possibly at once
				}
				if at < from && end > from {
					straddling++
				}
				nd.awake = append(nd.awake, at, end)
				at = next
			}
			nodes[k] = nd
		}
		got, want := meanPairwiseOverlap(nodes, Config{}, horizon), quadraticOverlap(nodes, horizon)
		if got != want {
			t.Fatalf("round %d: overlap %v, the quadratic scan gives %v", round, got, want)
		}
	}
	if interrupted < 100 || straddling < 100 {
		t.Errorf("drew %d interrupted scans and %d spans straddling the final quarter; want at least 100 of each", interrupted, straddling)
	}
}

// TestRunAllocationsDoNotGrowWithHorizon: a wake and a beacon copy are
// scheduled with the run's two bound event functions, so stretching the
// horizon eightfold adds only the amortized growth of the run's slices —
// each node's awake spans, the beacon records and the engine's slot pool
// and heap, at most ten regrowths each (past 256 elements append grows a
// slice by about 1.25×, and 1.25¹⁰ > 8) — and not one closure per event
// (the beacon-sync run below schedules ≈ 7 000 events per simulated
// minute; one closure each adds ≈ 54 000 objects here).
func TestRunAllocationsDoNotGrowWithHorizon(t *testing.T) {
	cfg := Config{
		N: 8, Seed: 3, Period: sim.Second, Window: 100 * sim.Millisecond,
		DriftPPM: 40, MaxPhase: sim.Second, Sync: true, ScanEvery: 5,
	}
	allocs := func(h sim.Time) float64 {
		cfg.Horizon = h
		return testing.AllocsPerRun(3, func() { Run(cfg) })
	}
	short, long := allocs(sim.Minute), allocs(8*sim.Minute)
	if bound := float64(10 * (cfg.N + 3)); long-short > bound {
		t.Errorf("Run allocates %.0f objects at an 8 min horizon, %.0f at 1 min: %.0f more, want at most %.0f",
			long, short, long-short, bound)
	}
}
