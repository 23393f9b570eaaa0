package lattice

import (
	"fmt"
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// oracleStats walks the lattice with the legacy recursive enumerator and
// returns count, level sizes, width and the visited-cut set — the ground
// truth every Survey mode must reproduce.
func oracleStats(e *Execution) (int64, []int64, int64, map[string]bool) {
	sizes := make([]int64, e.Events()+1)
	set := make(map[string]bool)
	count := e.Enumerate(0, func(cut []int) bool {
		level := 0
		for _, c := range cut {
			level += c
		}
		sizes[level]++
		set[fmt.Sprint(cut)] = true
		return true
	})
	var width int64
	for _, s := range sizes {
		if s > width {
			width = s
		}
	}
	return count, sizes, width, set
}

// randomExecutionCounts is randomExecution with a per-process event
// budget, so empty processes and ragged executions are covered.
func randomExecutionCounts(r *stats.RNG, counts []int) *Execution {
	n := len(counts)
	e := &Execution{Stamps: make([][]clock.Vector, n), Times: make([][]sim.Time, n)}
	clocks := make([]*clock.StrobeVector, n)
	for i := range clocks {
		clocks[i] = clock.NewStrobeVector(i, n)
	}
	remaining := make([]int, n)
	copy(remaining, counts)
	var published []clock.Vector
	for step := 0; ; step++ {
		i := -1
		for off := 0; off < n; off++ {
			if c := (step + off) % n; remaining[c] > 0 {
				i = c
				break
			}
		}
		if i < 0 {
			break
		}
		remaining[i]--
		if len(published) > 0 && r.Bool(0.7) {
			clocks[i].OnStrobe(published[r.Intn(len(published))])
		}
		v := clocks[i].Strobe()
		published = append(published, v)
		e.Stamps[i] = append(e.Stamps[i], v)
		e.Times[i] = append(e.Times[i], sim.Time(step))
	}
	return e
}

// dangleStamps makes proc src's events from index k on reference one
// more event of proc dst than exists — the inconsistent-stamp edge case
// a bad trim produces. Per-process monotonicity is preserved (earlier
// components never exceed dst's true event count), so both engines must
// agree that those events are unincludable.
func dangleStamps(e *Execution, src, k, dst int) {
	bogus := uint64(len(e.Stamps[dst]) + 1)
	for m := k; m < len(e.Stamps[src]); m++ {
		e.Stamps[src][m][dst] = bogus
	}
}

// checkAgainstOracle runs Survey in every mode — packed and string-key
// representations, with and without a visitor — and requires count, level
// sizes, width and the visited-cut set to match the recursive oracle.
func checkAgainstOracle(t *testing.T, label string, e *Execution) {
	t.Helper()
	wantCount, wantSizes, wantWidth, wantSet := oracleStats(e)
	modes := []struct {
		name  string
		force bool
		visit bool
	}{
		{"packed", false, true},
		{"packed-novisit", false, false},
		{"strings", true, true},
		{"strings-novisit", true, false},
	}
	for _, m := range modes {
		forceStringKeys = m.force
		set := make(map[string]bool)
		var opt SurveyOptions
		if m.visit {
			opt.Visit = func(cut []int) bool {
				set[fmt.Sprint(cut)] = true
				return true
			}
		}
		sv := e.Survey(opt)
		forceStringKeys = false
		if sv.Count != wantCount {
			t.Fatalf("%s/%s: count %d want %d", label, m.name, sv.Count, wantCount)
		}
		if sv.Width != wantWidth {
			t.Fatalf("%s/%s: width %d want %d", label, m.name, sv.Width, wantWidth)
		}
		if sv.Truncated {
			t.Fatalf("%s/%s: unlimited survey reported truncation", label, m.name)
		}
		if len(sv.LevelSizes) != len(wantSizes) {
			t.Fatalf("%s/%s: levels %v want %v", label, m.name, sv.LevelSizes, wantSizes)
		}
		for l := range wantSizes {
			if sv.LevelSizes[l] != wantSizes[l] {
				t.Fatalf("%s/%s: levels %v want %v", label, m.name, sv.LevelSizes, wantSizes)
			}
		}
		if m.visit {
			if len(set) != len(wantSet) {
				t.Fatalf("%s/%s: visited %d cuts want %d", label, m.name, len(set), len(wantSet))
			}
			for c := range wantSet {
				if !set[c] {
					t.Fatalf("%s/%s: cut %s not visited", label, m.name, c)
				}
			}
		}
	}
}

// TestSurveyMatchesOracle is the engine's differential property test:
// on randomized small executions — ragged event counts, empty
// processes, trimmed/dangling stamps — every Survey mode must agree
// with the legacy recursive enumerator on count, level sizes, width and
// the visited-cut set. make check runs it under -race, which exercises
// the parallel frontier fan-out.
func TestSurveyMatchesOracle(t *testing.T) {
	r := stats.NewRNG(123)
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(4)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = r.Intn(5) // 0..4 events; 0 covers empty processes
		}
		e := randomExecutionCounts(r, counts)
		label := fmt.Sprintf("trial%d(counts=%v)", trial, counts)
		if r.Bool(0.3) {
			src := r.Intn(n)
			dst := r.Intn(n)
			if len(e.Stamps[src]) > 0 && dst != src {
				dangleStamps(e, src, r.Intn(len(e.Stamps[src])), dst)
				label += "+dangle"
			}
		}
		checkAgainstOracle(t, label, e)
	}
}

func TestSurveyKnownLattices(t *testing.T) {
	checkAgainstOracle(t, "independent3x2", independent(3, 2))
	checkAgainstOracle(t, "chain3x2", chain(3, 2))
	checkAgainstOracle(t, "independent2x3", independent(2, 3))
}

func TestSurveyZeroProcesses(t *testing.T) {
	e := &Execution{}
	sv := e.Survey(SurveyOptions{})
	if sv.Count != 1 || sv.Width != 1 || len(sv.LevelSizes) != 1 || sv.LevelSizes[0] != 1 {
		t.Fatalf("empty execution survey: %+v", sv)
	}
	if got := e.Enumerate(0, nil); got != sv.Count {
		t.Fatalf("oracle disagrees on empty execution: %d vs %d", got, sv.Count)
	}
}

func TestSurveyLimit(t *testing.T) {
	e := independent(3, 3)
	for _, limit := range []int64{1, 2, 10, 63, 64, 65} {
		sv := e.Survey(SurveyOptions{Limit: limit})
		if want := e.Enumerate(limit, nil); sv.Count != want {
			t.Fatalf("limit %d: count %d want %d", limit, sv.Count, want)
		}
		if limit < 64 && !sv.Truncated {
			t.Fatalf("limit %d below lattice size not reported truncated", limit)
		}
	}
}

func TestSurveyVisitorAbort(t *testing.T) {
	e := independent(3, 3)
	var visited int64
	sv := e.Survey(SurveyOptions{Visit: func(cut []int) bool {
		visited++
		return visited < 5
	}})
	if visited != 5 || sv.Count != 5 || !sv.Truncated {
		t.Fatalf("abort: visited=%d count=%d truncated=%v", visited, sv.Count, sv.Truncated)
	}
}

// TestSurveyVisitOrder pins the documented deterministic order: level by
// level from the empty cut, lexicographic within each level.
func TestSurveyVisitOrder(t *testing.T) {
	e := independent(2, 1)
	var got [][]int
	e.Survey(SurveyOptions{Visit: func(cut []int) bool {
		got = append(got, append([]int(nil), cut...))
		return true
	}})
	want := [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("visit order %v want %v", got, want)
	}
}

// TestSurveyStringFallback covers executions whose packed keys do not
// fit in 64 bits: chain(25,3) has 75 totally ordered events (7 bits per
// component × 25 processes), so the engine must fall back to string keys
// and still find the 76-cut chain.
func TestSurveyStringFallback(t *testing.T) {
	e := chain(25, 3)
	sv := e.Survey(SurveyOptions{})
	if sv.Count != 76 || sv.Width != 1 {
		t.Fatalf("chain(25,3): count=%d width=%d want 76/1", sv.Count, sv.Width)
	}
}

func TestSurveyObsInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	SetObs(reg)
	defer SetObs(nil)
	e := independent(3, 3)
	sv := e.Survey(SurveyOptions{})
	if got := reg.Counter("lattice.surveys").Value(); got == 0 {
		t.Fatal("lattice.surveys not counted")
	}
	if got := reg.Counter("lattice.cuts").Value(); got != sv.Count {
		t.Fatalf("lattice.cuts %d want %d", got, sv.Count)
	}
	if reg.Counter("lattice.expanded").Value() == 0 {
		t.Fatal("lattice.expanded not counted")
	}
	if got := reg.Counter("lattice.dedup_hits").Value(); got != 0 {
		t.Fatalf("canonical generation must not produce duplicates, dedup_hits = %d", got)
	}
	if peak := reg.Gauge("lattice.frontier").Max(); peak != sv.Width {
		t.Fatalf("frontier peak %d want width %d", peak, sv.Width)
	}
	if spans := reg.Snapshot().Spans; len(spans) == 0 || spans[0].Name != "lattice.survey" {
		t.Fatal("survey span not recorded")
	}
	// The string-key fallback has no canonical rule; its map still
	// merges the grid's shared successors.
	forceStringKeys = true
	independent(3, 3).Survey(SurveyOptions{})
	forceStringKeys = false
	if reg.Counter("lattice.dedup_hits").Value() == 0 {
		t.Fatal("the 4^3 grid has shared successors; the fallback's dedup_hits must be > 0")
	}
}

// FuzzSurveyOracle drives the differential test from fuzzed shape bytes:
// each byte pair is (process count seed, event budget seed).
func FuzzSurveyOracle(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(9))
	f.Add(uint64(7), uint8(2), uint8(0))
	f.Add(uint64(42), uint8(4), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, budget uint8) {
		r := stats.NewRNG(seed)
		n := 1 + int(nRaw)%4
		counts := make([]int, n)
		for i := range counts {
			counts[i] = (int(budget) + i) % 5
		}
		e := randomExecutionCounts(r, counts)
		checkAgainstOracle(t, fmt.Sprintf("fuzz(n=%d,budget=%d)", n, budget), e)
	})
}

// benchCountWidthOracle reproduces the pre-Survey cost of E3's per-run
// statistics: one full recursive enumeration for the count and a second
// one for the level sizes behind Width.
func benchCountWidthOracle(b *testing.B, e *Execution) (int64, int64) {
	var count, width int64
	sizes := make([]int64, e.Events()+1)
	for i := 0; i < b.N; i++ {
		count = e.Enumerate(0, nil)
		for l := range sizes {
			sizes[l] = 0
		}
		e.Enumerate(0, func(cut []int) bool {
			level := 0
			for _, c := range cut {
				level += c
			}
			sizes[level]++
			return true
		})
		width = 0
		for _, s := range sizes {
			if s > width {
				width = s
			}
		}
	}
	return count, width
}

func BenchmarkOracleCountWidth4x4(b *testing.B) {
	e := randomExecution(stats.NewRNG(3), 4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	benchCountWidthOracle(b, e)
}

func BenchmarkSurveyCountWidth4x4(b *testing.B) {
	e := randomExecution(stats.NewRNG(3), 4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Survey(SurveyOptions{})
	}
}

func BenchmarkSurvey6x6Full(b *testing.B) {
	e := independent(6, 6) // the full 7⁶ = 117649-cut grid
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Survey(SurveyOptions{})
	}
}

func BenchmarkOracle6x6Full(b *testing.B) {
	e := independent(6, 6)
	b.ResetTimer()
	benchCountWidthOracle(b, e)
}
