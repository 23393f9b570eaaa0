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

// The checker-tree differential oracle: the hierarchical checker at any
// fan-out must produce byte-identical detection output — occurrences
// (definite and borderline bins), race markers, scores, counters, run
// records, delivery orders — to the flat StrobeChecker, across shard counts, worker
// counts, race-aware and race-blind, and under fault plans. The flat
// checker (CheckerFanout <= 1) is the oracle.

func treeDiffConfig(fanout, shards, workers int, race bool) HarnessConfig {
	cfg := diffConfig(shards, workers)
	cfg.CheckerFanout = fanout
	cfg.raceAware = race
	return cfg
}

func TestCheckerTreeDifferentialAgainstFlat(t *testing.T) {
	for _, race := range []bool{false, true} {
		name := "blind"
		if race {
			name = "aware"
		}
		t.Run(name, func(t *testing.T) {
			base := diffConfig(1, 1)
			base.raceAware = race
			want := runSharded(t, base)
			if len(want.res.Occurrences) == 0 {
				t.Fatalf("flat baseline detected nothing; scenario too quiet for a differential oracle")
			}
			if race && len(want.res.Markers) == 0 {
				t.Fatalf("race-aware baseline saw no races; scenario too quiet for the borderline bin")
			}
			for _, fanout := range []int{1, 2, 4, 8} {
				for _, shards := range []int{1, 4} {
					got := runSharded(t, treeDiffConfig(fanout, shards, 2, race))
					label := "R=" + itoa(fanout) + "/S=" + itoa(shards)
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
	mk := func(fanout, shards int, race bool) HarnessConfig {
		cfg := treeDiffConfig(fanout, shards, 4, race)
		cfg.Faults = plan
		return cfg
	}
	for _, race := range []bool{false, true} {
		base := diffConfig(1, 1)
		base.raceAware = race
		base.Faults = plan
		want := runSharded(t, base)
		for _, fanout := range []int{2, 8} {
			got := runSharded(t, mk(fanout, 4, race))
			label := "faults/R=" + itoa(fanout)
			if race {
				label += "/aware"
			}
			assertSameRun(t, label, want, got)
		}
	}
}

// TestCheckerTreeSparseFleet crosses the dense/sparse clock cutoff with
// the tree active: a 140-sensor fleet (sparse vector state) through
// R ∈ {4, 16} must match the flat checker byte for byte.
func TestCheckerTreeSparseFleet(t *testing.T) {
	mk := func(fanout int) HarnessConfig {
		cfg := fleetConfig(7, 140, 800*sim.Millisecond, 1500*sim.Millisecond)
		cfg.Shards, cfg.Workers = 4, 2
		cfg.Horizon = 500 * sim.Millisecond
		cfg.Record = true
		cfg.CheckerFanout = fanout
		return cfg
	}
	want := runSharded(t, mk(0))
	for _, fanout := range []int{4, 16} {
		got := runSharded(t, mk(fanout))
		assertSameRun(t, "sparse/R="+itoa(fanout), want, got)
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
	// The root's watermarks advance only through encode→decode; after
	// Finish every applied process must have synced its final seq.
	synced := 0
	for p := 0; p < h.Cfg.N; p++ {
		if _, seq := h.Tree.RootSynced(p); seq > 0 {
			synced++
		}
	}
	if synced != h.Cfg.N {
		t.Fatalf("root synced %d of %d processes", synced, h.Cfg.N)
	}
	// The pilot predicate is global (spans regions at R=4), so pilot
	// values are boundary-relevant; the non-pilot fleet is filtered as
	// region-local only when some clause is region-homed — with a single
	// global clause nothing is local, so just check entries flowed.
	if st.BatchEntries == 0 {
		t.Fatalf("no boundary value entries were forwarded: %+v", st)
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

// TestCheckerTreeObsCountersMatchFlat runs flat and tree with obs
// registries attached: the shared checker.* counters must agree exactly
// (pred_evals includes the four-state race probes, so this pins the
// probe replication, not just its verdicts).
func TestCheckerTreeObsCountersMatchFlat(t *testing.T) {
	run := func(fanout int) map[string]int64 {
		cfg := treeDiffConfig(fanout, 2, 1, true)
		r := obs.NewRegistry()
		cfg.Obs = r
		h := NewHarness(cfg)
		h.Run()
		out := map[string]int64{}
		for _, name := range []string{
			"checker.pred_evals", "checker.detections",
			"checker.strobes_applied", "checker.strobes_stale",
			"checker.race_markers",
		} {
			out[name] = r.Counter(name).Value()
		}
		return out
	}
	want := run(1)
	if want["checker.pred_evals"] <= want["checker.strobes_applied"] {
		t.Fatalf("baseline ran no race probes (evals %d, applied %d); oracle too weak",
			want["checker.pred_evals"], want["checker.strobes_applied"])
	}
	for _, fanout := range []int{2, 8} {
		got := run(fanout)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("R=%d: obs counters diverge:\nflat %v\ntree %v", fanout, want, got)
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
				tr.OnReport(treeReport(m), sim.Time(i+1))
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
