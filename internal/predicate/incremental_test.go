package predicate

import (
	"math"
	"testing"

	"pervasive/internal/stats"
)

// TestIncrementalRestoresExactly: setting keys and setting them back
// returns every running sum to its old bits, with no demotion.
func TestIncrementalRestoresExactly(t *testing.T) {
	var e Incremental
	e.Init(MustParse("sum(x) - x@1 + 3 >= y@0 && x@0 * y@1 < 4"), 4)
	e.Set(Key{0, "x"}, 5)
	e.Set(Key{1, "x"}, -2)
	e.Holds()
	before := e.cls[0].sum
	e.Set(Key{1, "x"}, 1<<40)
	e.Set(Key{0, "y"}, -7)
	e.Holds()
	e.Set(Key{0, "y"}, 0)
	e.Set(Key{1, "x"}, -2)
	e.Holds()
	if after := e.cls[0].sum; math.Float64bits(after[0]) != math.Float64bits(before[0]) ||
		math.Float64bits(after[1]) != math.Float64bits(before[1]) || e.Demoted != 0 {
		t.Errorf("sums %v after the round trip, %v before, %d demoted", after, before, e.Demoted)
	}
}

// TestIncrementalSetAllocations backs the hotpath proof rooted at Set: an
// update of a key a clause reads allocates nothing.
func TestIncrementalSetAllocations(t *testing.T) {
	var e Incremental
	e.Init(MustParse("sum(p) >= 3 && p@0 * p@1 < 2"), 64)
	v := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		v = 1 - v
		e.Set(Key{7, "p"}, v)
		e.Set(Key{1, "p"}, v)
		e.Holds()
	}); n != 0 {
		t.Errorf("Set and Holds allocate %v objects per run, want 0", n)
	}
}

// TestIncrementalColumnEdges holds Set and Get to a map[Key]float64 model
// at the edges of the per-name slot columns: a process past every column
// (past n, and inside n but past the largest literal of a name no
// aggregate reads), a negative process, a name no conjunct reads, an
// aggregate's column, and literals x@p with p ≥ n. A key no tracked
// conjunct reads is dropped unless an untracked FuncCond might read it,
// so the model reads 0 for it without one; every verdict is the whole
// predicate's over the model.
func TestIncrementalColumnEdges(t *testing.T) {
	const n = 4
	parsed := MustParse("sum(x) + y@1 + y@6 >= 3 && y@9 - z@2 < 2")
	ran := false
	funcCond := FuncCond{F: func(s State) bool {
		ran = true
		return s.Get(-2, "w")+s.Get(7, "x")+s.Get(3, "y") < 5
	}}
	keys := []Key{
		{0, "x"}, {3, "x"}, {4, "x"}, {7, "x"}, {-1, "x"}, {-2, "x"}, // aggregate column, past it, negative
		{1, "y"}, {0, "y"}, {3, "y"}, {6, "y"}, {9, "y"}, {8, "y"}, {-2, "y"}, // literals, past n, between them
		{2, "z"}, {1, "z"}, {5, "z"}, // a one-literal column
		{0, "w"}, {-2, "w"}, {11, "w"}, // a name no conjunct reads
	}
	for _, tc := range []struct {
		name  string
		pred  Cond
		extra bool
	}{
		{"tracked only", parsed, false},
		{"with an untracked FuncCond", And{L: parsed, R: funcCond}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Incremental
			e.Init(tc.pred, n)
			model := map[Key]float64{}
			read := map[Key]bool{}
			parsed.CollectVars(func(k Key) {
				if k.Proc == -1 {
					for p := 0; p < n; p++ {
						read[Key{p, k.Name}] = true
					}
					return
				}
				read[k] = true
			})
			r := stats.NewRNG(7)
			for step := 0; step < 2000; step++ {
				k := keys[r.Intn(len(keys))]
				v := float64(r.Intn(7) - 3)
				e.Set(k, v)
				model[k] = v
				for _, q := range keys {
					want := model[q]
					if !read[q] && !tc.extra {
						want = 0 // dropped: nothing can read it
					}
					if got := e.Get(q.Proc, q.Name); got != want {
						t.Fatalf("step %d, after Set(%v, %v): Get(%d, %q) = %v, want %v", step, k, v, q.Proc, q.Name, got, want)
					}
				}
				if got, want := e.Holds(), tc.pred.Holds(MapState{N: n, Vals: model}); got != want {
					t.Fatalf("step %d, after Set(%v, %v): Holds = %v, whole evaluation over the model %v", step, k, v, got, want)
				}
			}
			if ran != tc.extra {
				t.Errorf("the FuncCond ran: %v, want %v", ran, tc.extra)
			}
		})
	}
}
