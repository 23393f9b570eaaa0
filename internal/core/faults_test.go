package core

import (
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/faults"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/world"
)

// TestCheckerEpochBumpDoesNotMergePreCrashState is the regression test
// for recovery handling: a rebooted process restarts with Seq 1 under a
// bumped epoch, and the checker must (a) accept the fresh sequence rather
// than discarding it as stale, and (b) drop pre-crash stragglers rather
// than merging them into the post-reboot view.
func TestCheckerEpochBumpDoesNotMergePreCrashState(t *testing.T) {
	pred := predicate.MustParse("x@0 >= 1")
	c := NewVectorChecker(2, pred)

	stamp := func(a, b uint64) clock.Vector { return clock.Vector{a, b} }

	// Pre-crash life: Seq 1..3 applied.
	c.OnStrobe(StrobeMsg{Proc: 0, Seq: 1, Var: "x", Value: 1, Vec: stamp(1, 0)}, 10)
	c.OnStrobe(StrobeMsg{Proc: 0, Seq: 2, Var: "x", Value: 0, Vec: stamp(2, 0)}, 20)
	c.OnStrobe(StrobeMsg{Proc: 0, Seq: 3, Var: "x", Value: 1, Vec: stamp(3, 0)}, 30)
	if c.Applied != 3 {
		t.Fatalf("applied %d", c.Applied)
	}

	// Reboot: epoch 1, Seq restarts at 1. Without epoch handling this
	// would be discarded (Seq 1 <= lastSeq 3) and the checker would keep
	// serving the pre-crash value forever.
	c.OnStrobe(StrobeMsg{Proc: 0, Seq: 1, Epoch: 1, Var: "x", Value: 0, Vec: stamp(1, 0)}, 40)
	if c.Applied != 4 {
		t.Fatalf("fresh-epoch strobe discarded as stale (applied=%d)", c.Applied)
	}
	if got := c.View(0, "x"); got != 0 {
		t.Fatalf("post-reboot view x=%v, want 0", got)
	}

	// A pre-crash straggler (old epoch, high Seq) arrives late: it must be
	// dropped, not merged over the fresh state.
	c.OnStrobe(StrobeMsg{Proc: 0, Seq: 9, Epoch: 0, Var: "x", Value: 7, Vec: stamp(9, 0)}, 50)
	if got := c.View(0, "x"); got != 0 {
		t.Fatalf("pre-crash straggler merged into post-reboot view: x=%v", got)
	}
	if c.Stale != 1 {
		t.Fatalf("straggler not counted stale (stale=%d)", c.Stale)
	}

	// The fresh epoch's own ordering discipline still applies.
	c.OnStrobe(StrobeMsg{Proc: 0, Seq: 2, Epoch: 1, Var: "x", Value: 1, Vec: stamp(2, 0)}, 60)
	c.OnStrobe(StrobeMsg{Proc: 0, Seq: 2, Epoch: 1, Var: "x", Value: 0, Vec: stamp(2, 0)}, 61)
	if got := c.View(0, "x"); got != 1 {
		t.Fatalf("duplicate within fresh epoch applied: x=%v", got)
	}
}

// TestCheckerEpochResetsDiffReconstruction: after a reboot, the diff-strobe
// reconstruction must restart from zero, or the rebooted sender's small
// fresh components would lose to its stale pre-crash ones.
func TestCheckerEpochResetsDiffReconstruction(t *testing.T) {
	pred := predicate.MustParse("x@0 >= 1")
	c := NewVectorChecker(2, pred)
	sparse := func(proc int, val uint64) clock.SparseStamp {
		return clock.SparseStamp{{Proc: proc, Val: val}}
	}
	c.OnStrobe(StrobeMsg{Proc: 0, Seq: 1, Var: "x", Value: 1, Sparse: sparse(0, 5)}, 10)
	if c.recon[0][0] != 5 {
		t.Fatalf("recon %v", c.recon[0])
	}
	c.OnStrobe(StrobeMsg{Proc: 0, Seq: 1, Epoch: 1, Var: "x", Value: 0, Sparse: sparse(0, 1)}, 20)
	if c.recon[0][0] != 1 {
		t.Fatalf("pre-crash reconstruction survived the epoch bump: %v", c.recon[0])
	}
}

// crashHarness runs the standard pulse workload with a mid-run crash and
// recovery of sensor 1.
func crashHarness(t *testing.T, kind ClockKind) (*Harness, Results) {
	t.Helper()
	n := 3
	pred := ConjunctiveGlobal(predicate.MustParse("p@0 == 1"), n)
	plan := faults.NewPlan().
		Crash(1, 20*sim.Second).
		Recover(1, 30*sim.Second)
	h := NewHarness(HarnessConfig{
		Seed: 11, N: n, Kind: kind,
		Delay: sim.NewDeltaBounded(20 * sim.Millisecond),
		Pred:  pred, Modality: predicate.Instantaneously,
		Horizon: 60 * sim.Second,
		Faults:  plan,
	})
	for i := 0; i < n; i++ {
		obj := h.World.AddObject("obj", nil)
		h.Bind(i, obj, "p", "p")
		world.Toggler{Obj: obj, Attr: "p", MeanHigh: 3 * sim.Second,
			MeanLow: 2 * sim.Second}.Install(h.World, 60*sim.Second)
	}
	return h, h.Run()
}

func TestHarnessCrashRecoveryEndToEnd(t *testing.T) {
	for _, kind := range []ClockKind{VectorStrobe, ScalarStrobe, DiffVectorStrobe} {
		h, res := crashHarness(t, kind)
		inj := h.Faults
		if inj == nil {
			t.Fatalf("%v: injector not installed", kind)
		}
		if inj.Counts.CrashDrops.Load() == 0 {
			t.Errorf("%v: transport delivered to the crashed sensor", kind)
		}
		if h.Sensors[1].Epoch() != 1 {
			t.Errorf("%v: epoch %d after one recovery", kind, h.Sensors[1].Epoch())
		}
		if h.Sensors[1].down {
			t.Errorf("%v: sensor still down after recovery", kind)
		}
		// Post-recovery strobes must be applied — the checker heard from
		// the rebooted process again (fresh Seq under a bumped epoch).
		if res.Confusion.Recall() < 0.5 {
			t.Errorf("%v: recall %.3f collapsed — recovery did not rejoin detection",
				kind, res.Confusion.Recall())
		}
		// Detection must still work while degraded, and the whole run
		// stays deterministic.
		_, res2 := crashHarness(t, kind)
		if res.Confusion != res2.Confusion {
			t.Errorf("%v: crash/recovery run non-deterministic", kind)
		}
	}
}

func TestHarnessCrashDegradesVsCleanRun(t *testing.T) {
	// The crashed process's pulses go unobserved, so the conjunctive
	// predicate's occurrences during the outage are missed: faults must
	// strictly reduce applied strobes vs the identical fault-free run.
	n := 3
	build := func(plan *faults.Plan) *Harness {
		pred := ConjunctiveGlobal(predicate.MustParse("p@0 == 1"), n)
		h := NewHarness(HarnessConfig{
			Seed: 5, N: n, Kind: VectorStrobe,
			Delay: sim.NewDeltaBounded(20 * sim.Millisecond),
			Pred:  pred, Modality: predicate.Instantaneously,
			Horizon: 40 * sim.Second,
			Faults:  plan,
		})
		for i := 0; i < n; i++ {
			obj := h.World.AddObject("obj", nil)
			h.Bind(i, obj, "p", "p")
			world.Toggler{Obj: obj, Attr: "p", MeanHigh: 2 * sim.Second,
				MeanLow: 2 * sim.Second}.Install(h.World, 40*sim.Second)
		}
		return h
	}
	clean := build(nil)
	cleanRes := clean.Run()
	faulty := build(faults.NewPlan().Crash(1, 10*sim.Second).Recover(1, 25*sim.Second))
	faultyRes := faulty.Run()
	if faulty.StrobeCk.Applied >= clean.StrobeCk.Applied {
		t.Fatalf("crash did not reduce applied strobes: %d vs %d",
			faulty.StrobeCk.Applied, clean.StrobeCk.Applied)
	}
	if faultyRes.Net.Sent >= cleanRes.Net.Sent {
		t.Fatalf("crash did not reduce traffic: %d vs %d", faultyRes.Net.Sent, cleanRes.Net.Sent)
	}
}

func TestInstallFaultsRejectsCheckerCrash(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("crash event targeting the checker index was accepted")
		}
	}()
	pred := ConjunctiveGlobal(predicate.MustParse("p@0 == 1"), 2)
	NewHarness(HarnessConfig{
		Seed: 1, N: 2, Kind: VectorStrobe,
		Pred: pred, Modality: predicate.Instantaneously,
		Faults: faults.NewPlan().Crash(2, sim.Second), // index N = checker
	})
}
