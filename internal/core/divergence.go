package core

import (
	"sort"

	"pervasive/internal/sim"
	"pervasive/internal/world"
)

// occIntervals normalizes an occurrence stream into the sorted, disjoint,
// non-empty intervals it covers within [0, horizon): an open occurrence
// (End == 0) and one running past the horizon end at the horizon, and
// overlapping or adjacent occurrences merge.
func occIntervals(occ []Occurrence, horizon sim.Time) []world.Interval {
	out := make([]world.Interval, 0, len(occ))
	for _, o := range occ {
		iv := world.Interval{Start: max(o.Start, 0), End: o.End}
		if iv.End == 0 || iv.End > horizon {
			iv.End = horizon
		}
		if iv.End > iv.Start {
			out = append(out, iv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	merged := out[:0]
	for _, iv := range out {
		if n := len(merged); n > 0 && iv.Start <= merged[n-1].End {
			merged[n-1].End = max(merged[n-1].End, iv.End)
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// Divergence returns the fraction of [0, horizon) during which two
// detectors' views of the predicate disagree — the price of replicated
// (in-network) detection: each replica sees the strobes in its own arrival
// order, so replicas flip at slightly different instants. With Δ-bounded
// delays the disagreement is confined to O(Δ) windows around each flip.
// The disagreement is |A| + |B| − 2·|A ∩ B| in integer µs, the
// intersection taken by one sweep over both normalized streams.
func Divergence(a, b []Occurrence, horizon sim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	ia, ib := occIntervals(a, horizon), occIntervals(b, horizon)
	var xor sim.Duration
	for _, iv := range ia {
		xor += iv.End - iv.Start
	}
	for _, iv := range ib {
		xor += iv.End - iv.Start
	}
	for i, j := 0, 0; i < len(ia) && j < len(ib); {
		xor -= 2 * ia[i].Overlap(ib[j])
		if ia[i].End < ib[j].End {
			i++
		} else {
			j++
		}
	}
	return float64(xor) / float64(horizon)
}
