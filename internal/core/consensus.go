package core

import (
	"sort"

	"pervasive/internal/sim"
)

// ConsensusMerge implements the consensus step of Section 5's "consensus
// based algorithm using vector strobes": every sensor runs a checker
// replica (see Sensor.Local), and the replicas' views are merged by
// majority vote. An instant belongs to a merged occurrence when at least
// a majority of replicas consider the predicate true there — episodes
// that never reach majority support vote away; the occurrence is flagged
// Borderline when the replicas were not unanimous throughout, or when any
// contributing replica flagged its own detection — disagreement between
// replicas is exactly the signature of a race within Δ, with no central
// coordinator required.
func ConsensusMerge(replicas [][]Occurrence, horizon sim.Time) []Occurrence {
	k := len(replicas)
	if k == 0 {
		return nil
	}
	threshold := k/2 + 1

	// Sweep over all span boundaries counting active replicas.
	type edge struct {
		at         sim.Time
		delta      int
		borderline bool
	}
	var edges []edge
	for _, occ := range replicas {
		for _, o := range occ {
			end := o.End
			if end == 0 || end > horizon {
				end = horizon
			}
			if end <= o.Start {
				continue
			}
			edges = append(edges, edge{at: o.Start, delta: 1, borderline: o.Borderline})
			edges = append(edges, edge{at: end, delta: -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })

	var out []Occurrence
	count := 0
	open := false
	sawDisagreement := false
	sawFlag := false
	var start sim.Time
	i := 0
	for i < len(edges) {
		at := edges[i].at
		for i < len(edges) && edges[i].at == at {
			count += edges[i].delta
			if edges[i].borderline {
				sawFlag = true
			}
			i++
		}
		switch {
		case !open && count >= threshold:
			open = true
			start = at
			sawDisagreement = count < k
		case open:
			if count < k && count >= threshold {
				sawDisagreement = true
			}
			if count < threshold {
				out = append(out, Occurrence{
					Start: start, End: at,
					Borderline: sawDisagreement || sawFlag || count > 0,
				})
				open = false
				sawFlag = false
			}
		}
	}
	if open {
		out = append(out, Occurrence{Start: start, End: horizon,
			Borderline: sawDisagreement || sawFlag})
	}
	return out
}
