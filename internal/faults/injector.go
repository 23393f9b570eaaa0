package faults

import "sync/atomic"

import "pervasive/internal/sim"

// Counts tallies what the injector actually did to the traffic. Fields
// are atomics so the concurrent live engine and the single-threaded DES
// share one implementation; with no plan installed the transports never
// touch them.
type Counts struct {
	// SuppressedSends counts messages a crashed process would have sent.
	SuppressedSends atomic.Int64
	// CrashDrops counts deliveries to a process that was down.
	CrashDrops atomic.Int64
	// PartitionDrops counts messages cut by an active partition.
	PartitionDrops atomic.Int64
	// Duplicates counts extra deliveries injected by dup windows.
	Duplicates atomic.Int64
	// Reorders counts messages whose delay got reorder jitter.
	Reorders atomic.Int64
}

// EachCount calls fn with every counter's metric name and current value,
// in declaration order. It is the one enumeration of Counts: the obs
// mirrors of both DES transports and the live engine, and the sharded
// harness's CounterLines, all read through it. A nil injector has no
// counts.
func (in *Injector) EachCount(fn func(name string, v int64)) {
	if in == nil {
		return
	}
	c := &in.Counts
	fn("faults.suppressed_sends", c.SuppressedSends.Load())
	fn("faults.crash_drops", c.CrashDrops.Load())
	fn("faults.partition_drops", c.PartitionDrops.Load())
	fn("faults.duplicates", c.Duplicates.Load())
	fn("faults.reorders", c.Reorders.Load())
}

// Injector answers the transports' fault queries for one run. It is
// immutable after construction (Counts aside), so it is safe for
// concurrent use by the live engine and adds no hidden state to the DES.
type Injector struct {
	plan *Plan
	down [][]Interval // per-proc normalized down windows
	// group[k][i] is process i's group in partition k, or -1 if unlisted.
	group [][]int

	Counts Counts
}

// NewInjector compiles a plan. A nil or empty plan yields a nil injector,
// which every query treats as "no faults".
func NewInjector(p *Plan) *Injector {
	if p.Empty() {
		return nil
	}
	in := &Injector{plan: p, down: p.Downtimes()}
	n := p.MaxProc() + 1
	in.group = make([][]int, len(p.Partitions))
	for k, pt := range p.Partitions {
		g := make([]int, n)
		for i := range g {
			g[i] = -1
		}
		for gi, members := range pt.Groups {
			for _, m := range members {
				if m >= 0 && m < n {
					g[m] = gi
				}
			}
		}
		in.group[k] = g
	}
	return in
}

// Down reports whether process i is crashed at time t.
func (in *Injector) Down(i int, t sim.Time) bool {
	if in == nil || i < 0 || i >= len(in.down) {
		return false
	}
	for _, iv := range in.down[i] {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// Cut reports whether an active partition separates i and j at time t.
// Processes unlisted in a partition are in no group and are never cut.
func (in *Injector) Cut(i, j int, t sim.Time) bool {
	if in == nil {
		return false
	}
	for k, pt := range in.plan.Partitions {
		if t < pt.From || t >= pt.To {
			continue
		}
		g := in.group[k]
		gi, gj := -1, -1
		if i >= 0 && i < len(g) {
			gi = g[i]
		}
		if j >= 0 && j < len(g) {
			gj = g[j]
		}
		if gi >= 0 && gj >= 0 && gi != gj {
			return true
		}
	}
	return false
}

// DupProb returns the duplicate-delivery probability active at t (0 when
// no dup window covers t; overlapping windows take the max).
func (in *Injector) DupProb(t sim.Time) float64 {
	if in == nil {
		return 0
	}
	p := 0.0
	for _, w := range in.plan.Dups {
		if t >= w.From && t < w.To && w.P > p {
			p = w.P
		}
	}
	return p
}

// ReorderJitter returns the maximum extra delay active at t (0 when no
// reorder window covers t; overlapping windows take the max).
func (in *Injector) ReorderJitter(t sim.Time) sim.Duration {
	if in == nil {
		return 0
	}
	var j sim.Duration
	for _, w := range in.plan.Reorders {
		if t >= w.From && t < w.To && w.Jitter > j {
			j = w.Jitter
		}
	}
	return j
}

// Transitions returns the normalized lifecycle schedule (see
// Plan.Transitions); nil for the nil injector.
func (in *Injector) Transitions() []Event {
	if in == nil {
		return nil
	}
	return in.plan.Transitions()
}
