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

// beacon is one broadcast, shared by all of its copies: the sender and
// the next wake it announced.
type beacon struct {
	from int
	next sim.Time
}

// dutyRun is one simulation's shared state. Its two event functions are
// bound once per run: a wake's body is the waking node and its arg the
// timer's generation, a beacon copy's body the receiving node and its
// arg the index of its broadcast in beacons, so no event carries a
// closure.
type dutyRun struct {
	cfg      Config
	eng      *sim.Engine
	delayRNG *stats.RNG
	nodes    []*node
	beacons  []beacon
	res      Result
	wakeFn   sim.EventFunc
	hearFn   sim.EventFunc
}

// arm schedules nd's wake at its current nextWake, superseding any
// previously armed timer.
func (r *dutyRun) arm(nd *node) {
	nd.gen++
	r.eng.AtFunc(nd.nextWake, 0, r.wakeFn, nd, nd.gen)
}

// windowTrue is nd's wake window in true time: a window of W local units
// lasts W/(1+drift) true units; the deviation is negligible (ppm) but
// kept for fidelity.
func (r *dutyRun) windowTrue(nd *node) sim.Duration {
	return sim.Duration(float64(r.cfg.Window) / (1 + nd.hw.DriftPPM/1e6))
}

// periodTrue is nd's period in true time.
func (r *dutyRun) periodTrue(nd *node) sim.Duration {
	return sim.Duration(float64(r.cfg.Period) / (1 + nd.hw.DriftPPM/1e6))
}

// wake is a wake timer firing at node body, armed under generation gen.
func (r *dutyRun) wake(now sim.Time, body any, gen int) {
	nd := body.(*node)
	if nd.gen != gen {
		return
	}
	nd.wakes++
	wEnd := now + r.windowTrue(nd)
	if r.cfg.Sync && r.cfg.ScanEvery > 0 && nd.wakes%r.cfg.ScanEvery == 0 {
		// Resync scan: listen for a full period.
		wEnd = now + r.periodTrue(nd)
	}
	nd.awake = append(nd.awake, now, wEnd) //lint:allow hotpath(amortized growth: the spans are the run's scoring record, one pair per wake)
	nd.nextWake = now + r.periodTrue(nd)

	if r.cfg.Sync {
		r.res.Beacons++
		// Beacon carries the duration to the sender's next wake;
		// durations transfer across clocks up to ppm error.
		b := len(r.beacons)
		r.beacons = append(r.beacons, beacon{from: nd.id, next: nd.nextWake}) //lint:allow hotpath(amortized growth: one record per broadcast, shared by its copies)
		for _, peer := range r.nodes {
			if peer == nd {
				continue
			}
			d, dropped := r.cfg.Delay.Sample(r.delayRNG, nd.id, peer.id)
			if dropped {
				continue
			}
			r.eng.AtFunc(now+d, 0, r.hearFn, peer, b)
		}
	}
	// Schedule the next wake at the node's own timer.
	r.arm(nd)
}

// hear is node body receiving a copy of broadcast beacons[b].
func (r *dutyRun) hear(at sim.Time, body any, b int) {
	peer := body.(*node)
	// Only an awake radio hears the beacon.
	if !isAwake(peer, at) {
		return
	}
	// S-MAC-style cluster merge: adopt the schedule of any lower-id node
	// by aligning the next wake to the sender's phase (its announced next
	// wake, pulled back whole periods to the first instant at or after
	// now).
	if bc := r.beacons[b]; bc.from < peer.id {
		target := bc.next
		pt := r.periodTrue(peer)
		for target-pt >= at {
			target -= pt
		}
		if target != peer.nextWake {
			peer.nextWake = target
			r.arm(peer)
		}
	}
}

// Run executes one duty-cycle simulation.
func Run(cfg Config) Result {
	cfg.fill()
	eng := sim.NewEngine(cfg.Seed)
	rng := eng.RNG().Fork()
	r := &dutyRun{cfg: cfg, eng: eng, delayRNG: eng.RNG().Fork()}
	r.wakeFn, r.hearFn = r.wake, r.hear

	r.nodes = make([]*node, cfg.N)
	for i := range r.nodes {
		phase := sim.Time(0)
		if cfg.MaxPhase > 0 {
			phase = sim.Time(rng.Int63n(int64(cfg.MaxPhase)))
		}
		r.nodes[i] = &node{
			id: i,
			hw: clock.Drifting{
				DriftPPM: (2*rng.Float64() - 1) * cfg.DriftPPM,
			},
			nextWake: 1 + phase,
		}
	}
	for _, nd := range r.nodes {
		r.arm(nd)
	}
	eng.Run(cfg.Horizon)

	res := r.res
	res.Overlap = meanPairwiseOverlap(r.nodes, cfg, cfg.Horizon)
	var awake sim.Duration
	for _, nd := range r.nodes {
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
