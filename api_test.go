package pervasive

import (
	"fmt"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	pred := MustParsePredicate("x@0 == 1 && x@1 == 1")
	h := NewHarness(HarnessConfig{
		Seed: 1, N: 2, Kind: VectorStrobe,
		Delay: DeltaBounded(10 * Millisecond),
		Pred:  pred, Modality: Instantaneously,
		Horizon: 30 * Second,
	})
	a := h.World.AddObject("a", nil)
	b := h.World.AddObject("b", nil)
	h.Bind(0, a, "p", "x")
	h.Bind(1, b, "p", "x")
	h.Install(Toggler{Seed: 1, Obj: a, Attr: "p", MeanHigh: Second, MeanLow: Second},
		Toggler{Seed: 2, Obj: b, Attr: "p", MeanHigh: Second, MeanLow: Second})
	res := h.Run()
	if len(res.Truth) == 0 {
		t.Fatal("no truth intervals")
	}
	if res.Confusion.Recall() < 0.8 {
		t.Fatalf("recall %.2f", res.Confusion.Recall())
	}
}

func TestFacadeScenarios(t *testing.T) {
	if NewExhibitionHall(ExhibitionHallConfig{Run: ScenarioRun{Horizon: Second}}) == nil {
		t.Fatal("hall")
	}
	if NewSmartOffice(SmartOfficeConfig{Horizon: Second}) == nil {
		t.Fatal("office")
	}
	if NewHospital(HospitalConfig{Run: ScenarioRun{Horizon: Second}}) == nil {
		t.Fatal("hospital")
	}
	if NewHabitat(HabitatConfig{Run: ScenarioRun{Horizon: Second}}) == nil {
		t.Fatal("habitat")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) != 16 {
		t.Fatalf("expected 16 experiments, got %d", len(Experiments()))
	}
	tbl, ok := RunExperiment("E4", ExperimentConfig{Seed: 1, Quick: true})
	if !ok || tbl == nil || len(tbl.Rows) == 0 {
		t.Fatal("E4 run failed")
	}
	if _, ok := RunExperiment("E99", ExperimentConfig{}); ok {
		t.Fatal("bogus experiment found")
	}
}

func TestFacadeClockSync(t *testing.T) {
	res := RunRBS(SyncConfig{N: 8, Seed: 1, MaxOffset: 50 * Millisecond,
		JitterStd: 20 * Microsecond, MinDelay: Millisecond, MaxDelay: 2 * Millisecond,
		Rounds: 4})
	if res.Eps <= 0 || res.Messages == 0 {
		t.Fatalf("RBS result %+v", res)
	}
}

func TestFacadeClocks(t *testing.T) {
	var l Lamport
	l.Tick()
	vc := NewVectorClock(0, 3)
	vc.Tick()
	sv := NewStrobeVector(1, 3)
	stamp := sv.Strobe()
	if stamp[1] != 1 {
		t.Fatal("strobe vector broken via facade")
	}
}

func ExampleMustParsePredicate() {
	pred := MustParsePredicate("sum(x) - sum(y) > 200")
	fmt.Println(pred)
	// Output: (sum(x) - sum(y)) > 200
}
