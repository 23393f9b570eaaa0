// Package workload is the scenario-diversity layer: it turns world-plane
// activity into data. A Source materializes a deterministic, canonically
// ordered stream of attribute mutations; Install pumps that stream into a
// world on any engine (single-heap DES, sharded DES, or — via the live
// package's feeder — the goroutine engine). Because generation and replay
// run through the identical pump, a recorded run replays byte-identically:
// same world log, same strobe traffic, same detection output.
//
// The package has three parts:
//
//   - a versioned, delta-coded binary trace format (trace.go) in the
//     style of clock.AppendStampBatch, so any run can be recorded and
//     shipped between engines;
//   - statistically-informed generators (generators.go, servegen.go):
//     toggler fleets, hall/hospital admission flows, multi-period diurnal
//     load, heavy-tailed Pareto bursts, correlated cohorts and mobility
//     walks — every one seeded explicitly and deterministic per the
//     pervalint determinism analyzer;
//   - a stdlib-parseable scenario spec (spec.go) so `pervasim -workload
//     spec.txt` composes generators without code.
package workload

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/world"
)

// Event is one world-plane attribute mutation: at time At, object Obj's
// attribute Attr takes the absolute value Val. Absolute values (rather
// than increments) make replay a plain world.Set and make the trace the
// world log's exact image.
type Event struct {
	At   sim.Time
	Obj  int
	Attr string
	Val  float64
}

// compare is the canonical event order: (At, Obj, Attr). Within one
// (Obj, Attr) stream, generator emission order is always chronological,
// so canonical sorting never reorders a stream against itself — it only
// normalizes cross-object ties, which is what makes the order identical
// at every shard count.
func compare(a, b Event) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Obj, b.Obj); c != 0 {
		return c
	}
	return cmp.Compare(a.Attr, b.Attr)
}

// Sort orders events canonically, stably (same-key events keep their
// emission order).
func Sort(evs []Event) { slices.SortStableFunc(evs, compare) }

// Source produces a fully materialized workload: every event up to and
// including horizon, in canonical order. Materialization (rather than
// callback scheduling) is what makes a workload engine-independent data —
// fleets at p = 65536 over a few simulated seconds stay well under a
// million events.
type Source interface {
	Events(horizon sim.Time) []Event
}

// EventSource is the trivial Source: a pre-materialized stream (e.g. a
// decoded trace). Events returns the prefix at or before horizon; the
// slice must already be canonically ordered.
type EventSource []Event

// Events implements Source.
func (s EventSource) Events(horizon sim.Time) []Event {
	n := sort.Search(len(s), func(i int) bool { return s[i].At > horizon })
	return s[:n]
}

// Combine merges sources into one canonically ordered stream; one source
// is returned as is.
func Combine(srcs ...Source) Source {
	if len(srcs) == 1 {
		return srcs[0]
	}
	return combined(srcs)
}

type combined []Source

// Events implements Source.
func (c combined) Events(horizon sim.Time) []Event {
	var out []Event
	for _, s := range c {
		out = append(out, s.Events(horizon)...)
	}
	Sort(out)
	return out
}

// Install schedules evs onto the engine as a chained pump: one engine
// event per workload event, each applying a single world.Set and then
// scheduling its successor. One-event-per-mutation keeps sim.executed
// equal to the event count on every partitioning — a per-timestamp batch
// pump would make the executed counter depend on how a sharded run splits
// the stream. Pump events run at priority 0, so (matching the sharded
// kernel's convention) world mutations always sort ahead of same-instant
// message deliveries.
//
// evs must be canonically ordered and must not start before the engine's
// current time. A run driven by Install is exactly reproducible from evs:
// replaying a recorded stream re-creates the original execution.
func Install(eng *sim.Engine, w *world.World, evs []Event) {
	InstallRange(eng, w, evs, 0, math.MaxInt)
}

// InstallRange is Install over the events whose object lies in [lo, hi),
// each applied to object Obj−lo: the pump of one shard of a fleet, which
// hosts a contiguous range of global objects as local ids from 0. The pump
// walks evs in place and skips the events of other ranges without an
// engine event, so every shard reads the one canonical stream, fires the
// sub-stream a partitioned copy would hold, in the same order, and the
// executed count still equals the events fired.
func InstallRange(eng *sim.Engine, w *world.World, evs []Event, lo, hi int) {
	i := nextIn(evs, 0, lo, hi)
	if i == len(evs) {
		return
	}
	var step func(now sim.Time)
	step = func(sim.Time) {
		ev := &evs[i]
		w.Set(ev.Obj-lo, ev.Attr, ev.Val)
		if i = nextIn(evs, i+1, lo, hi); i < len(evs) {
			eng.At(evs[i].At, step)
		}
	}
	eng.At(evs[i].At, step)
}

// nextIn returns the index of the first event at or after i whose object
// lies in [lo, hi), or len(evs) if none does.
func nextIn(evs []Event, i, lo, hi int) int {
	for i < len(evs) && (evs[i].Obj < lo || evs[i].Obj >= hi) {
		i++
	}
	return i
}

// DeriveSeed maps (seed, domain) to an independent seed (the splitmix64
// finalizer), so one run seed can feed many generators without stream
// overlap. Every harness and scenario derives its seed domains here.
func DeriveSeed(seed, domain uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(domain+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// clampGap converts a sampled real-valued duration to at least one
// microsecond — the shared convention of every generator in this package.
func clampGap(v float64) sim.Duration {
	d := sim.Duration(v)
	if d < 1 {
		d = 1
	}
	return d
}

// expGap draws an exponential inter-event gap with the given mean.
func expGap(r *stats.RNG, mean sim.Duration) sim.Duration {
	return clampGap(stats.Exponential{MeanV: float64(mean)}.Sample(r))
}
