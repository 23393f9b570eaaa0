package core

import (
	"sort"

	"pervasive/internal/sim"
)

// ConsensusPolicy selects how sub-majority agreement is treated by the
// consensus merge, mirroring §5's choice of how to handle the borderline
// bin.
type ConsensusPolicy int

// Policies.
const (
	// ConsensusMajority suppresses episodes that never reach majority
	// support — maximum precision, minority hallucinations vote away.
	ConsensusMajority ConsensusPolicy = iota
	// ConsensusBin also emits sub-majority episodes, flagged borderline —
	// §5's "err on the safe side" policy: nothing any replica saw is
	// silently dropped, but partial agreement is marked as a race.
	ConsensusBin
)

// ConsensusMerge implements the consensus step of Section 5's "consensus
// based algorithm using vector strobes" with the majority policy: every
// sensor runs a checker replica (see Sensor.Local), and the replicas'
// views are merged by majority vote. An instant belongs to a merged
// occurrence when at least a majority of replicas consider the predicate
// true there; the occurrence is flagged Borderline when the replicas were
// not unanimous throughout, or when any contributing replica flagged its
// own detection — disagreement between replicas is exactly the signature
// of a race within Δ, with no central coordinator required.
func ConsensusMerge(replicas [][]Occurrence, horizon sim.Time) []Occurrence {
	return ConsensusMergePolicy(replicas, horizon, ConsensusMajority)
}

// ConsensusMergePolicy is ConsensusMerge with an explicit policy.
func ConsensusMergePolicy(replicas [][]Occurrence, horizon sim.Time, policy ConsensusPolicy) []Occurrence {
	k := len(replicas)
	if k == 0 {
		return nil
	}
	threshold := k/2 + 1
	if policy == ConsensusBin {
		threshold = 1
	}

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
