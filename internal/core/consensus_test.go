package core

import (
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// Confusion4 aliases the stats confusion matrix for brevity here.
type Confusion4 = stats.Confusion

func TestConsensusUnanimous(t *testing.T) {
	reps := [][]Occurrence{
		{{Start: 10, End: 20}},
		{{Start: 10, End: 20}},
		{{Start: 10, End: 20}},
	}
	out := ConsensusMerge(reps, 100)
	if len(out) != 1 || out[0].Start != 10 || out[0].End != 20 {
		t.Fatalf("merged %v", out)
	}
	if out[0].Borderline {
		t.Fatal("unanimous agreement flagged borderline")
	}
}

func TestConsensusMajorityWithJitter(t *testing.T) {
	// Replica edges jitter by view lag; the majority interval is flagged
	// borderline because agreement was not unanimous throughout.
	reps := [][]Occurrence{
		{{Start: 10, End: 20}},
		{{Start: 12, End: 22}},
		{{Start: 11, End: 19}},
	}
	out := ConsensusMerge(reps, 100)
	if len(out) != 1 {
		t.Fatalf("merged %v", out)
	}
	// Majority (2 of 3) reached at t=11, lost at t=20.
	if out[0].Start != 11 || out[0].End != 20 {
		t.Fatalf("merged %v", out)
	}
	if !out[0].Borderline {
		t.Fatal("jittered agreement should be borderline")
	}
}

func TestConsensusMinorityIsDropped(t *testing.T) {
	// One of three replicas hallucinates an occurrence: below majority,
	// it is suppressed entirely.
	reps := [][]Occurrence{
		{{Start: 50, End: 60}},
		{},
		{},
	}
	out := ConsensusMerge(reps, 100)
	if len(out) != 0 {
		t.Fatalf("minority view survived: %v", out)
	}
}

func TestConsensusPropagatesReplicaFlags(t *testing.T) {
	reps := [][]Occurrence{
		{{Start: 10, End: 20, Borderline: true}},
		{{Start: 10, End: 20}},
		{{Start: 10, End: 20}},
	}
	out := ConsensusMerge(reps, 100)
	if len(out) != 1 || !out[0].Borderline {
		t.Fatalf("replica flag lost: %v", out)
	}
}

func TestConsensusOpenOccurrenceClampsToHorizon(t *testing.T) {
	reps := [][]Occurrence{
		{{Start: 90, End: 0}},
		{{Start: 91, End: 0}},
	}
	out := ConsensusMerge(reps, 100)
	if len(out) != 1 || out[0].End != 100 {
		t.Fatalf("merged %v", out)
	}
}

func TestConsensusEmpty(t *testing.T) {
	if out := ConsensusMerge(nil, 100); out != nil {
		t.Fatalf("merged %v", out)
	}
	if out := ConsensusMerge([][]Occurrence{{}, {}}, 100); len(out) != 0 {
		t.Fatalf("merged %v", out)
	}
}

func TestConsensusBinPolicyKeepsMinority(t *testing.T) {
	reps := [][]Occurrence{
		{{Start: 50, End: 60}},
		{},
		{},
	}
	out := ConsensusMergePolicy(reps, 100, ConsensusBin)
	if len(out) != 1 || !out[0].Borderline {
		t.Fatalf("bin policy should keep the minority episode, flagged: %v", out)
	}
	if out[0].Start != 50 || out[0].End != 60 {
		t.Fatalf("merged %v", out)
	}
}

func TestConsensusEndToEnd(t *testing.T) {
	// Full stack, several seeds: replicas at every sensor, consensus-
	// merged occurrences scored against truth. The §5 claim under test is
	// that replica *disagreement* marks race-affected detections: merged
	// false positives should be (almost) entirely flagged borderline, and
	// recall should stay close to the replicas'.
	const n = 4
	const delta = 150 * sim.Millisecond
	var merged, replicaAgg Confusion4
	for seed := uint64(30); seed < 34; seed++ {
		h := pulseHarness(seed, n, VectorStrobe, sim.NewDeltaBounded(delta),
			600*sim.Millisecond, 900*sim.Millisecond, 60*sim.Second)
		replicas := make([]*StrobeChecker, n)
		for i, sn := range h.Sensors {
			replicas[i] = NewVectorChecker(n, h.Cfg.Pred)
			sn.Local = replicas[i]
		}
		res := h.Run()
		horizon := res.Horizon
		lists := make([][]Occurrence, n)
		for i, r := range replicas {
			r.Finish(horizon)
			lists[i] = r.Occurrences()
			replicaAgg.Add(Score(lists[i], res.Truth, nil, h.Cfg.Tol, horizon))
		}
		m := ConsensusMergePolicy(lists, horizon, ConsensusBin)
		merged.Add(Score(m, res.Truth, nil, h.Cfg.Tol, horizon))
	}
	// The bin policy keeps everything any replica saw, so recall matches
	// the replicas'.
	if r := merged.Recall(); r < 0.85 {
		t.Fatalf("consensus recall %.3f", r)
	}
	unflagged := merged.FP - merged.BorderlineFP
	if merged.FP > 0 && float64(unflagged)/float64(merged.FP) > 0.2 {
		t.Fatalf("consensus left %d of %d FPs unflagged — disagreement should mark them",
			unflagged, merged.FP)
	}
	// Consensus recall should not collapse relative to the mean replica.
	if merged.Recall() < replicaAgg.Recall()-0.1 {
		t.Fatalf("consensus recall %.3f far below replica mean %.3f",
			merged.Recall(), replicaAgg.Recall())
	}
}
