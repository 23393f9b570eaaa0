package network

import (
	"pervasive/internal/faults"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// The one link discipline. Every transport — Net on its one stream,
// ShardPart on the source's stream, the live engine on its locked stream —
// decides the fate of a link-level copy through LinkDelay and DupDelay, so
// the draw order (cut, delay, jitter; then coin, delay, jitter) and the
// fault counts it bumps are written once.

// LinkDelay decides the fate of one link-level copy from → to sent at now:
// the partition gate, then the delay model's draw from r, then reorder
// jitter from r. ok is false when the copy is lost; a partition cut is
// counted on f, the caller counts the drop in its own stats.
func LinkDelay(f *faults.Injector, model sim.DelayModel, r *stats.RNG, from, to int, now sim.Time) (d sim.Duration, ok bool) {
	if f != nil && f.Cut(from, to, now) {
		f.Counts.PartitionDrops.Add(1)
		return 0, false
	}
	d, dropped := sim.SampleDelay(model, r, now, from, to)
	if dropped {
		return 0, false
	}
	return shapeDelay(f, r, d, now), true
}

// DupDelay decides whether a copy LinkDelay let through is delivered a
// second time: inside a duplicate window it draws the window's coin from r,
// then an independent delay and its jitter. ok reports a second delivery
// after d, counted on f; the receiver's Seq discipline must absorb it.
func DupDelay(f *faults.Injector, model sim.DelayModel, r *stats.RNG, from, to int, now sim.Time) (d sim.Duration, ok bool) {
	if f == nil {
		return 0, false
	}
	if p := f.DupProb(now); p <= 0 || !r.Bool(p) {
		return 0, false
	}
	d, dropped := sim.SampleDelay(model, r, now, from, to)
	if dropped {
		return 0, false
	}
	f.Counts.Duplicates.Add(1)
	return shapeDelay(f, r, d, now), true
}

// shapeDelay adds active reorder-window jitter, drawn from r, to a sampled
// delay. The delay only grows, so the sharded lookahead invariant holds.
func shapeDelay(f *faults.Injector, r *stats.RNG, d sim.Duration, at sim.Time) sim.Duration {
	if f == nil {
		return d
	}
	if j := f.ReorderJitter(at); j > 0 {
		d += sim.Duration(r.Int63n(int64(j) + 1))
		f.Counts.Reorders.Add(1)
	}
	return d
}

// suppressed is the send gate of both DES transports: a process f has
// crashed at now sends nothing, and the lost send is counted.
func suppressed(f *faults.Injector, src int, now sim.Time) bool {
	if f == nil || !f.Down(src, now) {
		return false
	}
	f.Counts.SuppressedSends.Add(1)
	return true
}

// CrashDropped is the arrival gate of every transport: it reports
// whether the copy arriving at dst at now dies there because f has dst
// crashed — crashed processes take no deliveries — and counts the drop.
func (s *Stats) CrashDropped(f *faults.Injector, dst int, now sim.Time) bool {
	if f == nil || !f.Down(dst, now) {
		return false
	}
	s.Dropped++
	f.Counts.CrashDrops.Add(1)
	return true
}

// CountSends records the link-level transmissions of one logical send (or
// one flood relay step): Sent, Bytes and ByKind are bumped once, by the
// copy count, drops included. A step that sent nothing leaves no ByKind
// key behind, as counting per copy would not.
func (s *Stats) CountSends(p Payload, copies int64) {
	if copies == 0 {
		return
	}
	s.Sent += copies
	s.Bytes += copies * int64(p.WireSize()+headerBytes)
	s.ByKind[p.Kind()] += copies
}
