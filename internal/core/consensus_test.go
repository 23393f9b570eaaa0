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

func TestConsensusEndToEnd(t *testing.T) {
	// Full stack, several seeds: replicas at every sensor, majority-
	// merged occurrences scored against truth. The §5 claim under test is
	// that replica *disagreement* marks race-affected detections: the
	// majority vote removes the replicas' minority hallucinations, so the
	// merge is at least as precise as the mean replica, and what false
	// positives survive are (almost) entirely flagged borderline. Voting
	// away minority episodes costs recall, which is logged, not held.
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
			replicaAgg.Add(Score(lists[i], res.Truth, nil, h.Tol(), horizon))
		}
		m := ConsensusMerge(lists, horizon)
		merged.Add(Score(m, res.Truth, nil, h.Tol(), horizon))
	}
	t.Logf("consensus recall %.3f precision %.3f (%d FPs, %d flagged); replicas %.3f / %.3f (%d FPs)",
		merged.Recall(), merged.Precision(), merged.FP, merged.BorderlineFP,
		replicaAgg.Recall(), replicaAgg.Precision(), replicaAgg.FP)
	if replicaAgg.FP == 0 || merged.Precision() < replicaAgg.Precision() {
		t.Fatalf("majority merge precision %.3f below the mean replica's %.3f (%d replica FPs)",
			merged.Precision(), replicaAgg.Precision(), replicaAgg.FP)
	}
	unflagged := merged.FP - merged.BorderlineFP
	if merged.FP > 0 && float64(unflagged)/float64(merged.FP) > 0.2 {
		t.Fatalf("consensus left %d of %d FPs unflagged — disagreement should mark them",
			unflagged, merged.FP)
	}
}
