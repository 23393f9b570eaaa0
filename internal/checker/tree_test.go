package checker

import (
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// report builds a minimal differential strobe report: the sender's own
// clock component rides the sparse stamp, as the real protocol emits.
func report(proc, seq int, v float64) Report {
	return Report{
		Proc: proc, Seq: seq, Var: "p", Value: v,
		Sparse: clock.SparseStamp{{Proc: proc, Val: uint64(seq)}},
	}
}

func sumTree(n, fanout int, k int) *Tree {
	return New(Config{
		N: n, Pred: predicate.MustParse("sum(p) >= " + itoa(k)), Fanout: fanout,
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestTreeDetectsAndClosesOccurrences(t *testing.T) {
	tr := sumTree(8, 4, 2)
	tr.OnReport(report(0, 1, 1), 10)
	tr.OnReport(report(5, 1, 1), 20) // sum reaches 2: open
	tr.OnReport(report(5, 2, 0), 30) // back to 1: close
	tr.OnReport(report(3, 1, 1), 40) // open again
	tr.Finish(100)
	occ := tr.Occurrences()
	if len(occ) != 2 {
		t.Fatalf("occurrences = %v, want 2", occ)
	}
	if occ[0].Start != 20 || occ[0].End != 30 {
		t.Errorf("first occurrence = %+v, want [20, 30]", occ[0])
	}
	if occ[1].Start != 40 || occ[1].End != 100 {
		t.Errorf("second occurrence = %+v, want [40, 100] (closed at horizon)", occ[1])
	}
}

func TestTreeAdmissionDiscipline(t *testing.T) {
	tr := sumTree(8, 4, 2)
	tr.OnReport(report(0, 1, 1), 10)
	tr.OnReport(report(0, 1, 1), 11) // duplicate seq: stale
	tr.OnReport(report(0, 3, 1), 12)
	tr.OnReport(report(0, 2, 0), 13) // reordered older: stale
	m := report(0, 1, 0)
	m.Epoch = 1 // rebooted sender: fresh seq space accepted
	tr.OnReport(m, 14)
	old := report(0, 9, 1)
	old.Epoch = 0 // pre-crash straggler under the old epoch: stale
	tr.OnReport(old, 15)
	tr.OnReport(Report{Proc: 99, Seq: 1, Var: "p"}, 16) // out of range
	if tr.Stat.Applied != 3 || tr.Stat.Stale != 4 {
		t.Fatalf("applied/stale = %d/%d, want 3/4", tr.Stat.Applied, tr.Stat.Stale)
	}
	if got := tr.View(0, "p"); got != 0 {
		t.Fatalf("view = %v, want 0 (epoch-1 value)", got)
	}
}

// TestTreeAggregatorCrashRecovery is the regional-node counterpart of
// the sensor epoch-reset tests: when the crashing process is a regional
// aggregator, rejoin must not merge any pre-crash regional state — not
// values, not admission watermarks, not clause partials.
func TestTreeAggregatorCrashRecovery(t *testing.T) {
	tr := sumTree(8, 4, 3)
	// Region 1 owns procs 2..3. Drive the predicate true through them.
	tr.OnReport(report(2, 5, 1), 10)
	tr.OnReport(report(3, 5, 1), 20) // sum=2
	tr.OnReport(report(0, 1, 1), 25) // sum=3: open occurrence
	if got := tr.numFalse; got != 0 {
		t.Fatalf("predicate should hold before the crash")
	}

	tr.CrashRegion(1)
	tr.OnReport(report(2, 6, 0), 30) // dropped: aggregator down
	if tr.Stat.RegionDropped == 0 {
		t.Fatalf("crashed region accepted a report")
	}
	if got := tr.View(2, "p"); got != 1 {
		t.Fatalf("crash must freeze, not wipe, the synced view; got %v", got)
	}

	tr.RecoverRegion(1, 40)
	// Recovery forgets the region wholesale: values and clause partials.
	if got := tr.View(2, "p"); got != 0 {
		t.Fatalf("post-recovery view of proc 2 = %v, want 0", got)
	}
	if got := tr.View(3, "p"); got != 0 {
		t.Fatalf("post-recovery view of proc 3 = %v, want 0", got)
	}
	// sum fell to 1 < 3: the occurrence must close at the recovery time.
	occ := tr.Occurrences()
	if len(occ) != 1 || occ[0].End != 40 {
		t.Fatalf("occurrence = %v, want one closed at 40", occ)
	}
	if a := tr.Aggregators()[1]; a.Epoch() != 1 {
		t.Fatalf("regional epoch = %d, want 1", a.Epoch())
	}

	// Fresh admission state: a seq far below the pre-crash watermark is
	// accepted (the rejoined aggregator has no pre-crash watermarks to
	// compare against), and pre-crash values never resurface.
	tr.OnReport(report(2, 1, 1), 50)
	if got := tr.View(2, "p"); got != 1 {
		t.Fatalf("post-recovery report rejected: view = %v", got)
	}
	if tr.numFalse == 0 {
		t.Fatalf("sum should be 2 only after proc 3 reports again — pre-crash partials leaked")
	}
	tr.OnReport(report(3, 1, 1), 60)
	if tr.numFalse != 0 {
		t.Fatalf("predicate should hold again after both procs re-report")
	}
	occ = tr.Occurrences()
	if len(occ) != 2 || occ[1].Start != 60 {
		t.Fatalf("occurrences = %v, want reopening at 60", occ)
	}
}

// TestTreeRecoveryDiscardsStaleRegionalBatches pins the root-side epoch
// discipline: a batch stamped with a pre-recovery regional epoch must
// not advance the root watermarks.
func TestTreeRecoveryDiscardsStaleRegionalBatches(t *testing.T) {
	tr := sumTree(8, 4, 2)
	tr.OnReport(report(2, 5, 1), 10)
	tr.Finish(20) // flush: root sees proc 2 at seq 5
	if _, seq := tr.RootSynced(2); seq != 5 {
		t.Fatalf("root seq = %d, want 5", seq)
	}
	// Hand-deliver a stale batch (regional epoch 0) after a recovery
	// bumped the region to epoch 1.
	tr2 := sumTree(8, 4, 2)
	tr2.OnReport(report(2, 5, 1), 10)
	tr2.CrashRegion(1)
	tr2.RecoverRegion(1, 15)
	stale := Batch{Region: 1, Epoch: 0, At: 16,
		Triples: []clock.StampTriple{{Proc: 2, Val: 9, Sent: 9}}}
	tr2.rootApply(stale)
	if own, seq := tr2.RootSynced(2); own == 9 || seq == 9 {
		t.Fatalf("stale regional batch advanced root watermarks: own=%d seq=%d", own, seq)
	}
}

func TestTreeBatchCoalescing(t *testing.T) {
	tr := New(Config{
		N: 8, Pred: predicate.MustParse("sum(p) >= 99"), Fanout: 2,
		BatchInterval: 100,
	})
	tr.maxBatch = 4
	// Same proc three times inside one window: two coalesces.
	tr.OnReport(report(0, 1, 1), 1)
	tr.OnReport(report(0, 2, 0), 2)
	tr.OnReport(report(0, 3, 1), 3)
	if tr.Stat.Coalesced != 2 || tr.Stat.Batches != 0 {
		t.Fatalf("coalesced/batches = %d/%d, want 2/0", tr.Stat.Coalesced, tr.Stat.Batches)
	}
	// Fill the pending set to maxBatch: forced flush despite the window.
	tr.OnReport(report(1, 1, 1), 4)
	tr.OnReport(report(2, 1, 1), 5)
	tr.OnReport(report(3, 1, 1), 6)
	if tr.Stat.Batches != 1 {
		t.Fatalf("full pending set did not force a flush: %+v", tr.Stat)
	}
	if tr.Stat.BatchTriples != 4 {
		t.Fatalf("batch triples = %d, want 4", tr.Stat.BatchTriples)
	}
	if _, seq := tr.RootSynced(0); seq != 3 {
		t.Fatalf("root synced seq %d for proc 0, want the coalesced 3", seq)
	}
	// Interval flush: next report after the window flushes the rest.
	tr.OnReport(report(4, 1, 1), 200)
	if tr.Stat.Batches != 2 {
		t.Fatalf("interval flush missing: %+v", tr.Stat)
	}
	if lag := tr.Stat.SyncLagTotal; lag <= 0 {
		t.Fatalf("sync lag total = %v, want > 0", lag)
	}
}

// TestTreeBoundedAggregatorMemory is the bounded-memory claim: with the
// fan-out scaled with the fleet (fixed region size), the largest
// aggregator footprint stays flat as p grows 16x, and race-blind trees
// never allocate reconstruction state.
func TestTreeBoundedAggregatorMemory(t *testing.T) {
	perAgg := func(p int) int {
		tr := sumTree(p, p/256, p/2)
		seq := 0
		for round := 0; round < 3; round++ {
			seq++
			for proc := 0; proc < p; proc++ {
				tr.OnReport(report(proc, seq, float64(round%2)), sim.Time(round*10+1))
			}
		}
		for _, a := range tr.Aggregators() {
			if a.recon != nil {
				t.Fatalf("race-blind aggregator allocated reconstructions")
			}
		}
		return tr.MaxAggregatorBytes()
	}
	small := perAgg(1024) // 4 aggregators of 256
	big := perAgg(16384)  // 64 aggregators of 256
	if big > small*2 {
		t.Fatalf("per-aggregator bytes grew with p: %d at p=1024 vs %d at p=16384", small, big)
	}
}

// TestTreeMatchesCmpSemantics drives every comparison operator through
// a linear clause at its boundary value.
func TestTreeMatchesCmpSemantics(t *testing.T) {
	cases := []struct {
		src  string
		v    float64
		want bool
	}{
		{"p@0 > 1", 1, false}, {"p@0 > 1", 2, true},
		{"p@0 >= 1", 1, true}, {"p@0 < 1", 0, true},
		{"p@0 <= 1", 2, false}, {"p@0 == 1", 1, true},
		{"p@0 != 1", 1, false},
	}
	for _, tc := range cases {
		tr := New(Config{N: 2, Pred: predicate.MustParse(tc.src), Fanout: 2})
		tr.OnReport(report(0, 1, tc.v), 1)
		if got := tr.numFalse == 0; got != tc.want {
			t.Errorf("%q with p@0=%v: settled=%v, want %v", tc.src, tc.v, got, tc.want)
		}
	}
}
