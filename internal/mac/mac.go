// Package mac implements the lower-layer application the paper sketches
// at the end of Section 5: "synchronization of duty cycles among wireless
// sensor nodes for efficient execution of MAC and routing layer functions
// can be achieved using distributed timers … synchronization can be
// achieved via send and receive events."
//
// Each node sleeps and wakes on a timer driven by its own drifting
// hardware clock (period T, wake window W). Unsynchronized, clock drift
// slides the wake windows apart until neighbours can no longer rendezvous.
// The synchronization protocol is exactly the strobe idea applied to
// timers: at each wake, a node broadcasts a beacon carrying the time
// remaining to its next wake (a duration, measurable without any common
// time base); an awake receiver adopts the earlier of its own and the
// sender's next wake — a componentwise "catch up to the latest knowledge"
// merge, realized with send and receive events only.
package mac

import (
	"pervasive/internal/clock"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// Config parameterizes a duty-cycle run.
type Config struct {
	N        int
	Seed     uint64
	Period   sim.Duration // duty-cycle period T
	Window   sim.Duration // wake window W per period
	DriftPPM float64      // hardware clock drift bound (±)
	// MaxPhase spreads initial wake phases uniformly in [0, MaxPhase); 0
	// starts all nodes aligned.
	MaxPhase sim.Duration
	// Sync enables the beacon protocol; without it timers free-run.
	Sync bool
	// ScanEvery makes every k-th wake a full-period listen scan (the
	// low-power-listening resync of real duty-cycle MACs): during a scan
	// the node hears every beacon, so arbitrary phases converge. 0
	// disables scans (beacons are heard only inside chance overlaps).
	ScanEvery int
	// Delay is the beacon propagation delay model (default Δ-bounded 2ms).
	Delay   sim.DelayModel
	Horizon sim.Time
}

func (c *Config) fill() {
	if c.N <= 0 {
		c.N = 8
	}
	if c.Period <= 0 {
		c.Period = sim.Second
	}
	if c.Window <= 0 {
		c.Window = c.Period / 10
	}
	if c.Delay == nil {
		c.Delay = sim.DeltaBounded{Min: 200 * sim.Microsecond, Max: 2 * sim.Millisecond}
	}
	if c.Horizon <= 0 {
		c.Horizon = 10 * sim.Minute
	}
}

// Result reports rendezvous quality and cost.
type Result struct {
	// Overlap is the mean pairwise wake-overlap fraction measured over
	// the final quarter of the run: 1 means neighbours are always awake
	// together; W/T is the random-alignment baseline.
	Overlap float64
	// Beacons is the number of beacon transmissions.
	Beacons int64
	// Wakes is the total number of wake windows.
	Wakes int64
	// AwakeFraction is total radio-on time over N·horizon — the energy
	// proxy; scans make it exceed W/T.
	AwakeFraction float64
}

type node struct {
	id    int
	wakes int
	hw    clock.Drifting
	// nextWake is the next wake instant in true time.
	nextWake sim.Time
	// gen invalidates superseded wake timers: each (re)arm bumps it and a
	// firing timer from an older generation is a no-op.
	gen int
	// awake spans in true time, recorded for scoring.
	awake []sim.Time // flat [start, end, start, end, ...]
}

// arm schedules the node's wake at its current nextWake, superseding any
// previously armed timer.
func (nd *node) arm(eng *sim.Engine, h func(now sim.Time)) {
	nd.gen++
	g := nd.gen
	eng.At(nd.nextWake, func(now sim.Time) {
		if nd.gen != g {
			return
		}
		h(now)
	})
}

// Run executes one duty-cycle simulation.
func Run(cfg Config) Result {
	cfg.fill()
	eng := sim.NewEngine(cfg.Seed)
	r := eng.RNG().Fork()
	delayRNG := eng.RNG().Fork()

	nodes := make([]*node, cfg.N)
	for i := range nodes {
		phase := sim.Time(0)
		if cfg.MaxPhase > 0 {
			phase = sim.Time(r.Int63n(int64(cfg.MaxPhase)))
		}
		nodes[i] = &node{
			id: i,
			hw: clock.Drifting{
				DriftPPM: (2*r.Float64() - 1) * cfg.DriftPPM,
			},
			nextWake: 1 + phase,
		}
	}

	var res Result
	windowTrue := func(nd *node) sim.Duration {
		// A window of W local units lasts W/(1+drift) true units; the
		// deviation is negligible (ppm) but kept for fidelity.
		return sim.Duration(float64(cfg.Window) / (1 + nd.hw.DriftPPM/1e6))
	}
	periodTrue := func(nd *node) sim.Duration {
		return sim.Duration(float64(cfg.Period) / (1 + nd.hw.DriftPPM/1e6))
	}

	var wake func(nd *node) sim.Handler
	wake = func(nd *node) sim.Handler {
		return func(now sim.Time) {
			res.Wakes++
			nd.wakes++
			wEnd := now + windowTrue(nd)
			if cfg.Sync && cfg.ScanEvery > 0 && nd.wakes%cfg.ScanEvery == 0 {
				// Resync scan: listen for a full period.
				wEnd = now + periodTrue(nd)
			}
			nd.awake = append(nd.awake, now, wEnd)
			nd.nextWake = now + periodTrue(nd)

			if cfg.Sync {
				res.Beacons++
				// Beacon carries the duration to the sender's next wake;
				// durations transfer across clocks up to ppm error.
				for _, peer := range nodes {
					if peer == nd {
						continue
					}
					peer := peer
					d, dropped := cfg.Delay.Sample(delayRNG, nd.id, peer.id)
					if dropped {
						continue
					}
					arrival := now + d
					senderNext := nd.nextWake
					eng.At(arrival, func(at sim.Time) {
						// Only an awake radio hears the beacon.
						if !isAwake(peer, at) {
							return
						}
						// S-MAC-style cluster merge: adopt the schedule of
						// any lower-id node by aligning the next wake to
						// the sender's phase (its announced next wake,
						// pulled back whole periods to the first instant
						// at or after now).
						if nd.id < peer.id {
							target := senderNext
							pt := periodTrue(peer)
							for target-pt >= at {
								target -= pt
							}
							if target != peer.nextWake {
								peer.nextWake = target
								peer.arm(eng, wake(peer))
							}
						}
					})
				}
			}
			// Schedule the next wake at the node's own timer.
			nd.arm(eng, wake(nd))
		}
	}
	for _, nd := range nodes {
		nd.arm(eng, wake(nd))
	}
	eng.Run(cfg.Horizon)

	res.Overlap = meanPairwiseOverlap(nodes, cfg, cfg.Horizon)
	var awake sim.Duration
	for _, nd := range nodes {
		for i := 0; i+1 < len(nd.awake); i += 2 {
			hi := nd.awake[i+1]
			if hi > cfg.Horizon {
				hi = cfg.Horizon
			}
			if hi > nd.awake[i] {
				awake += hi - nd.awake[i]
			}
		}
	}
	res.AwakeFraction = float64(awake) / float64(int64(cfg.Horizon)*int64(cfg.N))
	return res
}

func isAwake(nd *node, at sim.Time) bool {
	for i := len(nd.awake) - 2; i >= 0; i -= 2 {
		if nd.awake[i] <= at && at < nd.awake[i+1] {
			return true
		}
		if nd.awake[i+1] < at {
			return false
		}
	}
	return false
}

// meanPairwiseOverlap measures, over the final quarter of the run, the
// mean over ordered pairs (i, j) of the fraction of i's awake time during
// which j was also awake. A node's spans are recorded at non-decreasing
// wake times (their ends need not be: a full-period scan can outlast the
// node's next, re-armed wake), so for each span of a the scan of b starts
// past the leading spans that ended at or before it began — none of which
// can meet a later span of a either — and stops at the first that begins
// at or after its end.
func meanPairwiseOverlap(nodes []*node, cfg Config, horizon sim.Time) float64 {
	from := horizon - horizon/4
	var acc stats.Online
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			var awakeA, both sim.Duration
			first := 0
			for i := 0; i+1 < len(a.awake); i += 2 {
				lo, hi := a.awake[i], a.awake[i+1]
				if hi <= from {
					continue
				}
				if lo < from {
					lo = from
				}
				awakeA += hi - lo
				for first+1 < len(b.awake) && b.awake[first+1] <= lo {
					first += 2
				}
				for j := first; j+1 < len(b.awake) && b.awake[j] < hi; j += 2 {
					blo, bhi := b.awake[j], b.awake[j+1]
					olo, ohi := maxT(lo, blo), minT(hi, bhi)
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

func minT(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

func maxT(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
