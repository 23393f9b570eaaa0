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

// strobedExecution builds a strobe-stamped execution with counts[i]
// events on process i, the processes taking turns. Before each event
// its process merges one earlier strobe with probability merge, drawn
// uniformly from the latest window strobes (window 0: from all of them;
// merge 1 and window 1 make a Δ=0 chain).
func strobedExecution(r *stats.RNG, counts []int, merge float64, window int) *Execution {
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
		if len(published) > 0 && r.Bool(merge) {
			k := r.Intn(len(published))
			if window > 0 {
				k = len(published) - 1 - r.Intn(min(window, len(published)))
			}
			clocks[i].OnStrobe(published[k])
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
// components never exceed dst's true event count), so both walks must
// agree that those events are unincludable.
func dangleStamps(e *Execution, src, k, dst int) {
	bogus := uint64(len(e.Stamps[dst]) + 1)
	for m := k; m < len(e.Stamps[src]); m++ {
		e.Stamps[src][m][dst] = bogus
	}
}

// overclaimStamps makes proc src's events from index k on claim one more
// own event than their index allows (event m says it is the (m+2)-th),
// as a decoded trace may: nothing bounds a stamp's own component. No cut
// that includes them is consistent.
func overclaimStamps(e *Execution, src, k int) {
	for m := k; m < len(e.Stamps[src]); m++ {
		e.Stamps[src][m][src] = uint64(m + 2)
	}
}

// checkAgainstOracle runs Survey with and without a visitor and under a
// limit one short of the lattice, and requires count, level sizes, width
// and the visited cuts — each once, level by level — to match the
// recursive oracle.
func checkAgainstOracle(t *testing.T, label string, e *Execution) {
	t.Helper()
	wantCount, wantSizes, wantWidth, wantSet := oracleStats(e)
	for _, visit := range []bool{true, false} {
		set := make(map[string]bool)
		var opt SurveyOptions
		level := 0
		if visit {
			opt.Visit = func(cut []int) bool {
				l := 0
				for _, c := range cut {
					l += c
				}
				if l < level {
					t.Fatalf("%s: cut %v of level %d visited after level %d", label, cut, l, level)
				}
				level = l
				key := fmt.Sprint(cut)
				if set[key] {
					t.Fatalf("%s: cut %v visited twice", label, cut)
				}
				set[key] = true
				return true
			}
		}
		sv := e.Survey(opt)
		if sv.Count != wantCount {
			t.Fatalf("%s/visit=%v: count %d want %d", label, visit, sv.Count, wantCount)
		}
		if sv.Width != wantWidth {
			t.Fatalf("%s/visit=%v: width %d want %d", label, visit, sv.Width, wantWidth)
		}
		if sv.Truncated {
			t.Fatalf("%s/visit=%v: unlimited survey reported truncation", label, visit)
		}
		if fmt.Sprint(sv.LevelSizes) != fmt.Sprint(wantSizes) {
			t.Fatalf("%s/visit=%v: levels %v want %v", label, visit, sv.LevelSizes, wantSizes)
		}
		if visit {
			if len(set) != len(wantSet) {
				t.Fatalf("%s: visited %d cuts want %d", label, len(set), len(wantSet))
			}
			for c := range wantSet {
				if !set[c] {
					t.Fatalf("%s: cut %s not visited", label, c)
				}
			}
		}
	}
	if wantCount > 1 {
		sv := e.Survey(SurveyOptions{Limit: wantCount - 1})
		if sv.Count != wantCount-1 || !sv.Truncated {
			t.Fatalf("%s: limit %d: count %d truncated %v", label, wantCount-1, sv.Count, sv.Truncated)
		}
	}
}

// The shapes of execution the fixed-seed draw must each reach.
const (
	shapeNarrow    = iota // n ≤ 4, each event merging any earlier strobe
	shapeWide             // n ≥ 17: more processes than one 64-bit word packs
	shapeOverclaim        // events claiming more own events than their index
	shapeDangle           // stamps naming an event their peer never had
	shapeEmpty            // a process with no events
	shapeCases
)

// surveyVsOracle decodes data into an execution and holds Survey to the
// recursive oracle on it. data[0] picks the width: below 128, n = 1 +
// data[0]%4 with 0–4 events a process, each merging a uniformly drawn
// earlier strobe 70 % of the time; from 128 up, n = 17 + data[0]%16 with
// 0–3 events a process, each merging one of the latest two strobes —
// or the latest, a Δ=0 chain, when data[1]&4 is set — which keeps the
// oracle tractable at that width. data[1]&1 dangles one process's stamps
// past a peer's last event, data[1]&2 has one process overclaim its own
// component. The remaining bytes seed the draws.
func surveyVsOracle(t *testing.T, data []byte) (seen [shapeCases]int) {
	t.Helper()
	if len(data) < 2 {
		return seen
	}
	var seed uint64
	for _, b := range data {
		seed = seed*131 + uint64(b)
	}
	r := stats.NewRNG(seed)
	shape, flags := data[0], data[1]
	var e *Execution
	var counts []int
	if shape < 128 {
		counts = make([]int, 1+int(shape)%4)
		for i := range counts {
			counts[i] = r.Intn(5)
		}
		e = strobedExecution(r, counts, 0.7, 0)
		seen[shapeNarrow]++
	} else {
		counts = make([]int, 17+int(shape)%16)
		for i := range counts {
			counts[i] = r.Intn(4)
		}
		window := 2
		if flags&4 != 0 {
			window = 1
		}
		e = strobedExecution(r, counts, 1, window)
		seen[shapeWide]++
	}
	n := len(counts)
	for _, c := range counts {
		if c == 0 {
			seen[shapeEmpty]++
			break
		}
	}
	if src, dst := r.Intn(n), r.Intn(n); flags&1 != 0 && src != dst && counts[src] > 0 {
		dangleStamps(e, src, r.Intn(counts[src]), dst)
		seen[shapeDangle]++
	}
	if src := r.Intn(n); flags&2 != 0 && counts[src] > 0 {
		overclaimStamps(e, src, r.Intn(counts[src]))
		seen[shapeOverclaim]++
	}
	checkAgainstOracle(t, fmt.Sprintf("data %x (counts %v)", data, counts), e)
	return seen
}

// TestSurveyMatchesOracle is the walk's differential property at a fixed
// seed: on drawn executions — narrow and wide, ragged, with empty
// processes, dangling and overclaiming stamps — Survey must agree with
// the legacy recursive enumerator on count, level sizes, width, the
// visited cuts and truncation. Every shape must be reached.
func TestSurveyMatchesOracle(t *testing.T) {
	r := stats.NewRNG(123)
	var seen [shapeCases]int
	for trial := 0; trial < 250; trial++ {
		data := make([]byte, 2+r.Intn(8))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		for c, k := range surveyVsOracle(t, data) {
			seen[c] += k
		}
	}
	t.Logf("shapes: %v", seen)
	for c, k := range seen {
		if k < 30 {
			t.Errorf("the draw reached shape %d only %d times", c, k)
		}
	}
}

// FuzzSurveyOracle is the same body under the native fuzzer. The
// checked-in corpus in testdata/fuzz/FuzzSurveyOracle has one entry per
// shape: narrow, wide (strobed, and a Δ=0 chain), overclaim, dangle and
// empty processes.
func FuzzSurveyOracle(f *testing.F) {
	f.Add([]byte{3, 0, 9})
	f.Add([]byte{2, 1, 7})
	f.Add([]byte{130, 4, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		surveyVsOracle(t, data)
	})
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
		if limit >= 64 && sv.Truncated {
			t.Fatalf("limit %d covers the lattice but reported truncated", limit)
		}
	}
}

// A limited survey holds no level larger than its limit (plus the one
// cut that tells it to stop), however wide the lattice: 2²⁰ cuts of a
// 20-process antichain, cut off at 1000.
func TestSurveyLimitBoundsFrontier(t *testing.T) {
	reg := obs.NewRegistry()
	SetObs(reg)
	defer SetObs(nil)
	sv := independent(20, 1).Survey(SurveyOptions{Limit: 1000})
	if sv.Count != 1000 || !sv.Truncated {
		t.Fatalf("count %d truncated %v", sv.Count, sv.Truncated)
	}
	if peak := reg.Gauge("lattice.frontier").Max(); peak > 1001 {
		t.Fatalf("frontier peaked at %d cuts under a limit of 1000", peak)
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

// TestSurveyWideChain covers an execution with more events per process
// and more processes than one 64-bit word packs: chain(25,3) has 75
// totally ordered events (7 bits per component × 25 processes), and the
// walk must still find the 76-cut chain.
func TestSurveyWideChain(t *testing.T) {
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
	if peak := reg.Gauge("lattice.frontier").Max(); peak != sv.Width {
		t.Fatalf("frontier peak %d want width %d", peak, sv.Width)
	}
	if spans := reg.Snapshot().Spans; len(spans) == 0 || spans[0].Name != "lattice.survey" {
		t.Fatal("survey span not recorded")
	}
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
