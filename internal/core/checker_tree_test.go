package core

import (
	"reflect"
	"testing"

	"pervasive/internal/checker"
	"pervasive/internal/faults"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// The checker-tree differential oracle: the harness's checker tree, at any
// fan-out, must produce the detection output of the flat reference
// StrobeChecker fed the same delivery stream — occurrences (definite and
// borderline bins), race markers, applied/stale counts and the obs
// counters the two share — and runs at different fan-outs, shard counts
// and worker counts must agree on everything else they observe (scores,
// counters, run records, delivery orders), race-aware and race-blind and
// under fault plans.

func treeDiffConfig(fanout, shards, workers int, race bool) HarnessConfig {
	cfg := diffConfig(shards, workers)
	cfg.CheckerFanout = fanout
	cfg.raceAware = race
	return cfg
}

// flatCounters are the obs counters the tree and the flat checker share.
var flatCounters = [...]string{
	"checker.pred_evals", "checker.detections",
	"checker.strobes_applied", "checker.strobes_stale",
	"checker.race_markers",
}

// countedCond counts the evaluations of the predicate it wraps — the flat
// checker's, the four-state probes of race detection included.
type countedCond struct {
	predicate.Cond
	n *int64
}

func (c countedCond) Holds(s predicate.State) bool {
	*c.n++
	return c.Cond.Holds(s)
}

// runTapped runs a fleet with its checker node re-registered so that every
// strobe delivered there reaches both h.Tree and a flat StrobeChecker,
// race-aware exactly when the tree is, and fails the test unless the tree
// matches the flat checker on that one stream. It returns the run and the
// tree's shared obs counters.
func runTapped(t *testing.T, label string, cfg HarnessConfig) (diffRun, map[string]int64) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Obs = reg
	h := NewHarness(cfg)
	var flatEvals int64
	flat := newStrobeChecker(cfg.N, countedCond{cfg.Pred, &flatEvals}, cfg.raceAware)
	onStrobes(h.Sharded, cfg.N, func(m StrobeMsg, now sim.Time) {
		h.Tree.OnReport(checker.Report(m), now)
		flat.OnStrobe(m, now)
	})
	run := recordedRun(h)
	flat.Finish(run.res.Horizon)
	got := map[string]int64{}
	for _, name := range flatCounters {
		got[name] = reg.Counter(name).Value()
	}
	want := map[string]int64{
		"checker.pred_evals": flatEvals, "checker.detections": int64(len(flat.Occurrences())),
		"checker.strobes_applied": flat.Applied, "checker.strobes_stale": flat.Stale,
		"checker.race_markers": int64(len(flat.Markers())),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: tree obs counters %v, the flat checker's %v", label, got, want)
	}
	if st := h.Tree.Stat; st.Applied != flat.Applied || st.Stale != flat.Stale {
		t.Errorf("%s: tree applied %d, stale %d; the flat checker %d, %d", label, st.Applied, st.Stale, flat.Applied, flat.Stale)
	}
	if occ := clipToHorizon(flat.Occurrences(), run.res.Horizon); !reflect.DeepEqual(run.res.Occurrences, occ) {
		t.Errorf("%s: tree occurrences %v, the flat checker's %v", label, run.res.Occurrences, occ)
	}
	if !reflect.DeepEqual(run.res.Markers, flat.Markers()) {
		t.Errorf("%s: tree markers %v, the flat checker's %v", label, run.res.Markers, flat.Markers())
	}
	return run, got
}

func TestCheckerTreeDifferentialAgainstFlat(t *testing.T) {
	for _, race := range []bool{false, true} {
		name := "blind"
		if race {
			name = "aware"
		}
		t.Run(name, func(t *testing.T) {
			want, _ := runTapped(t, "R=1/S=1", treeDiffConfig(1, 1, 1, race))
			if len(want.res.Occurrences) == 0 {
				t.Fatalf("baseline detected nothing; scenario too quiet for a differential oracle")
			}
			if race && len(want.res.Markers) == 0 {
				t.Fatalf("race-aware baseline saw no races; scenario too quiet for the borderline bin")
			}
			for _, fanout := range []int{1, 2, 4, 8} {
				for _, shards := range []int{1, 4} {
					label := "R=" + itoa(fanout) + "/S=" + itoa(shards)
					got, _ := runTapped(t, label, treeDiffConfig(fanout, shards, 2, race))
					assertSameRun(t, label, want, got)
				}
			}
		})
	}
}

// TestCheckerTreeDifferentialWithFaults repeats the oracle under the
// fault plan of TestShardedDifferentialWithFaults: sensor crash/recover
// epoch bumps and a partition window must flow through the tree's
// per-region admission state identically.
func TestCheckerTreeDifferentialWithFaults(t *testing.T) {
	plan := &faults.Plan{
		Events: []faults.Event{
			{Kind: faults.Crash, Proc: 2, At: 300 * sim.Millisecond},
			{Kind: faults.Recover, Proc: 2, At: 900 * sim.Millisecond},
			{Kind: faults.Crash, Proc: 17, At: 500 * sim.Millisecond},
			{Kind: faults.Recover, Proc: 17, At: 1400 * sim.Millisecond},
			{Kind: faults.Crash, Proc: 9, At: 1100 * sim.Millisecond},
		},
		Partitions: []faults.Partition{{
			Groups: [][]int{{0, 1, 2, 3}, {20, 21, 22, 23}},
			From:   600 * sim.Millisecond, To: 1 * sim.Second,
		}},
	}
	mk := func(fanout, shards, workers int, race bool) HarnessConfig {
		cfg := treeDiffConfig(fanout, shards, workers, race)
		cfg.Faults = plan
		return cfg
	}
	for _, race := range []bool{false, true} {
		suffix := ""
		if race {
			suffix = "/aware"
		}
		want, _ := runTapped(t, "faults/R=1"+suffix, mk(1, 1, 1, race))
		for _, fanout := range []int{2, 8} {
			label := "faults/R=" + itoa(fanout) + suffix
			got, _ := runTapped(t, label, mk(fanout, 4, 4, race))
			assertSameRun(t, label, want, got)
		}
	}
}

// TestCheckerTreeSparseFleet crosses the dense/sparse clock cutoff with
// the tree active: a 140-sensor fleet (sparse vector state) through
// R ∈ {1, 4, 16} must match the flat checker byte for byte.
func TestCheckerTreeSparseFleet(t *testing.T) {
	mk := func(fanout int) HarnessConfig {
		cfg := fleetConfig(7, 140, 800*sim.Millisecond, 1500*sim.Millisecond)
		cfg.Shards, cfg.Workers = 4, 2
		cfg.Horizon = 500 * sim.Millisecond
		cfg.Record = true
		cfg.CheckerFanout = fanout
		return cfg
	}
	want, _ := runTapped(t, "sparse/R=1", mk(0))
	for _, fanout := range []int{4, 16} {
		label := "sparse/R=" + itoa(fanout)
		got, _ := runTapped(t, label, mk(fanout))
		assertSameRun(t, label, want, got)
	}
}

// TestCheckerTreeBatchingActive guards against the differential tests
// passing vacuously: a tree run must actually batch, coalesce and move
// sync bytes through the wire codec.
func TestCheckerTreeBatchingActive(t *testing.T) {
	cfg := treeDiffConfig(4, 2, 1, false)
	// Fast togglers: several reports per process per 5ms flush window, so
	// the pending set genuinely coalesces superseded values.
	cfg.Workload = fleetConfig(cfg.Seed, cfg.N, 2*sim.Millisecond, 2*sim.Millisecond).Workload
	cfg.Horizon = 500 * sim.Millisecond
	h := NewHarness(cfg)
	h.Run()
	st := h.Tree.Stat
	if st.Applied == 0 || st.Batches == 0 || st.BatchTriples == 0 {
		t.Fatalf("tree did not batch: %+v", st)
	}
	if st.WireBytes == 0 {
		t.Fatalf("no sync bytes crossed the wire codec: %+v", st)
	}
	if st.Coalesced == 0 {
		t.Fatalf("no pending values were coalesced: %+v", st)
	}
}

// TestCheckerTreeFinishBooksNoNegativeLag: Run drains in-flight strobes
// after the horizon, the tree stages them with firstAt > horizon, and
// Finish flushes every aggregator at the horizon — those reports waited
// zero, not a negative time, so SyncLagTotal may not fall across Finish.
func TestCheckerTreeFinishBooksNoNegativeLag(t *testing.T) {
	cfg := fleetConfig(3, 256, 40*sim.Millisecond, 40*sim.Millisecond)
	cfg.Shards, cfg.Workers, cfg.CheckerFanout = 2, 1, 4
	cfg.Horizon = 600 * sim.Millisecond
	h := NewHarness(cfg)
	h.Sh.Run(h.Cfg.Horizon)
	h.Sh.RunAll()
	before := h.Tree.Stat
	h.Tree.Finish(h.Cfg.Horizon)
	after := h.Tree.Stat
	if after.SyncedProcs == before.SyncedProcs {
		t.Fatalf("Finish flushed nothing (%d synced): the drain staged no report past the horizon", after.SyncedProcs)
	}
	if after.SyncLagTotal < before.SyncLagTotal {
		t.Fatalf("Finish took sync lag from %v down to %v over %d flushed reports",
			before.SyncLagTotal, after.SyncLagTotal, after.SyncedProcs-before.SyncedProcs)
	}
}

// TestCheckerTreeObsCountersMatchFlat holds the tree's shared checker.*
// obs counters to the flat checker's on one delivery stream at several
// fan-outs (runTapped compares them): pred_evals includes the four-state
// race probes, so this pins the probe replication, not just its verdicts.
func TestCheckerTreeObsCountersMatchFlat(t *testing.T) {
	for _, fanout := range []int{1, 2, 8} {
		_, got := runTapped(t, "R="+itoa(fanout), treeDiffConfig(fanout, 2, 1, true))
		if got["checker.pred_evals"] <= got["checker.strobes_applied"] {
			t.Fatalf("R=%d ran no race probes (evals %d, applied %d); oracle too weak",
				fanout, got["checker.pred_evals"], got["checker.strobes_applied"])
		}
	}
}

// TestCheckerTreeFractionsAndUndeclaredReads: a tree's verdict is the
// flat checker's on values whose sums round by order and on a FuncCond
// reading a variable it never declares — one occurrence each, opened by
// the last report, at R = 1 and R = 2.
func TestCheckerTreeFractionsAndUndeclaredReads(t *testing.T) {
	type rep struct {
		proc int
		name string
		v    float64
	}
	for _, tc := range []struct {
		pred predicate.Cond
		reps []rep
	}{
		{predicate.MustParse("p@0 + p@1 + p@2 >= 1"), []rep{{2, "p", 0.7}, {1, "p", 0.2}, {0, "p", 0.1}}},
		{predicate.FuncCond{
			F:    func(s predicate.State) bool { return s.Get(0, "y") >= 1 && s.Get(1, "x") >= 1 },
			Keys: []predicate.Key{{Proc: 1, Name: "x"}},
		}, []rep{{1, "x", 1}, {0, "y", 1}}},
	} {
		flat := NewVectorChecker(3, tc.pred)
		trees := []*checker.Tree{
			checker.New(checker.Config{N: 3, Pred: tc.pred, Fanout: 1, RaceAware: true}),
			checker.New(checker.Config{N: 3, Pred: tc.pred, Fanout: 2, RaceAware: true}),
		}
		for i, r := range tc.reps {
			m := StrobeMsg{Proc: r.proc, Seq: 1, Var: r.name, Value: r.v}
			flat.OnStrobe(m, sim.Time(i+1))
			for _, tr := range trees {
				tr.OnReport(checker.Report(m), sim.Time(i+1))
			}
		}
		want := []Occurrence{{Start: sim.Time(len(tc.reps))}}
		if got := flat.Occurrences(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: flat checker found %v, want %v", tc.pred, got, want)
		}
		for _, tr := range trees {
			if got := tr.Occurrences(); !reflect.DeepEqual(got, want) {
				t.Errorf("%v at R = %d: tree found %v, the flat checker %v", tc.pred, tr.Fanout(), got, want)
			}
		}
	}
}
