package pervasive

// One benchmark per reproduction experiment (E1–E13; see DESIGN.md §2 and
// EXPERIMENTS.md). Each benchmark runs its experiment in Quick mode with a
// varying seed so iterations differ; `go test -bench=.` therefore
// regenerates a fast version of every table, and `cmd/experiments` the
// full versions. Micro-benchmarks for the clock protocols and the
// detection hot path follow.

import (
	"testing"

	"pervasive/internal/experiments"
	"pervasive/internal/sim"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := e.Run(experiments.RunConfig{Seed: uint64(i + 1), Quick: true})
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE1StrobeAccuracy(b *testing.B)           { benchExperiment(b, "E1") }
func BenchmarkE2TwoEpsilonFalseNegatives(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3SlimLattice(b *testing.B)              { benchExperiment(b, "E3") }
func BenchmarkE4ScalarVectorEquivalence(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkE5ExhibitionHall(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6DefinitelyUnderDelay(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7MessageOverhead(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8LossLocalization(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE9ClockSyncCost(b *testing.B)            { benchExperiment(b, "E9") }
func BenchmarkE10EveryOccurrence(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11HiddenChannels(b *testing.B)          { benchExperiment(b, "E11") }
func BenchmarkE12FalseCausality(b *testing.B)          { benchExperiment(b, "E12") }
func BenchmarkE13CrashChurn(b *testing.B)              { benchExperiment(b, "E13") }

// Design-choice ablations (A1–A6; see DESIGN.md and the experiment notes).
func BenchmarkA1BorderlinePolicy(b *testing.B)    { benchExperiment(b, "A1") }
func BenchmarkA2RaceCriterion(b *testing.B)       { benchExperiment(b, "A2") }
func BenchmarkA3BroadcastStrategy(b *testing.B)   { benchExperiment(b, "A3") }
func BenchmarkA4DiffCompression(b *testing.B)     { benchExperiment(b, "A4") }
func BenchmarkA5PhysicalSlack(b *testing.B)       { benchExperiment(b, "A5") }
func BenchmarkA6DutyCycle(b *testing.B)           { benchExperiment(b, "A6") }
func BenchmarkA7DistributedCheckers(b *testing.B) { benchExperiment(b, "A7") }

// ---- micro-benchmarks ----

func BenchmarkStrobeVectorProtocol(b *testing.B) {
	// One relevant event at each of 16 processes, full merge fan-out —
	// the per-event cost of the strobe vector protocol (SVC1 + n×SVC2).
	const n = 16
	clocks := make([]*StrobeVector, n)
	for i := range clocks {
		clocks[i] = NewStrobeVector(i, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % n
		stamp := clocks[src].Strobe()
		for j := range clocks {
			if j != src {
				clocks[j].OnStrobe(stamp)
			}
		}
	}
}

func BenchmarkStrobeScalarProtocol(b *testing.B) {
	const n = 16
	clocks := make([]*StrobeScalar, n)
	for i := range clocks {
		clocks[i] = &StrobeScalar{}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % n
		v := clocks[src].Strobe()
		for j := range clocks {
			if j != src {
				clocks[j].OnStrobe(v)
			}
		}
	}
}

func BenchmarkPredicateEval(b *testing.B) {
	pred := MustParsePredicate("sum(x) - sum(y) > 200")
	type key = struct {
		Proc int
		Name string
	}
	_ = key{}
	st := mapState{n: 8, vals: map[[2]any]float64{}}
	for i := 0; i < 8; i++ {
		st.vals[[2]any{i, "x"}] = float64(40 * i)
		st.vals[[2]any{i, "y"}] = float64(10 * i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pred.Holds(st) {
			b.Fatal("predicate should hold")
		}
	}
}

type mapState struct {
	n    int
	vals map[[2]any]float64
}

func (m mapState) Get(proc int, name string) float64 { return m.vals[[2]any{proc, name}] }
func (m mapState) NumProcs() int                     { return m.n }

// BenchmarkKernelScheduleStep measures the DES kernel's steady-state
// schedule+step cost: a fixed population of self-rescheduling events, one
// pop and one push per iteration. The fast-path bar is 0 allocs/op;
// cmd/bench runs the same cycle as sim.drill_step_ns.
func BenchmarkKernelScheduleStep(b *testing.B) {
	e := sim.NewEngine(1)
	const depth = 1024
	var tick sim.Handler
	tick = func(now sim.Time) {
		e.After(sim.Duration(now%97)+1, tick)
	}
	for i := 0; i < depth; i++ {
		e.After(sim.Duration(i%97)+1, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkHallScenarioEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hall := NewExhibitionHall(ExhibitionHallConfig{
			Seed: uint64(i), Doors: 4, Capacity: 100, InitialOccupancy: 95,
			MeanArrival: 200 * Millisecond, MeanStay: 10 * Second,
			Horizon: 20 * Second,
		})
		hall.Run()
	}
}
