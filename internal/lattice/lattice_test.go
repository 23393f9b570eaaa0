package lattice

import (
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// independent builds an n-process execution with p events per process and
// no communication: every event's vector knows only its own process.
func independent(n, p int) *Execution {
	e := &Execution{Stamps: make([][]clock.Vector, n), Times: make([][]sim.Time, n)}
	for i := 0; i < n; i++ {
		for k := 1; k <= p; k++ {
			v := clock.NewVector(n)
			v[i] = uint64(k)
			e.Stamps[i] = append(e.Stamps[i], v)
			// interleave true times deterministically: proc i event k at
			// time k*n + i
			e.Times[i] = append(e.Times[i], sim.Time(k*n+i))
		}
	}
	return e
}

// chain builds an execution in which all events are totally ordered by
// immediate strobes (Δ=0): each event's stamp knows every earlier event.
func chain(n, p int) *Execution {
	e := &Execution{Stamps: make([][]clock.Vector, n), Times: make([][]sim.Time, n)}
	counts := make([]uint64, n)
	for step := 0; step < n*p; step++ {
		i := step % n
		counts[i]++
		v := make(clock.Vector, n)
		copy(v, counts)
		e.Stamps[i] = append(e.Stamps[i], v)
		e.Times[i] = append(e.Times[i], sim.Time(step))
	}
	return e
}

func TestIndependentLatticeIsFull(t *testing.T) {
	// With no ordering constraints, every cut is consistent: (p+1)^n.
	e := independent(3, 2)
	if got := e.Survey(SurveyOptions{}).Count; got != 27 {
		t.Fatalf("count %d want 27", got)
	}
	if e.NumCuts() != 27 {
		t.Fatalf("numcuts %d", e.NumCuts())
	}
}

func TestChainLatticeIsLinear(t *testing.T) {
	// With total order, consistent cuts form a chain of n*p + 1 states —
	// the Δ=0 claim of §4.2.4.
	e := chain(3, 2)
	want := int64(3*2 + 1)
	if got := e.Survey(SurveyOptions{}).Count; got != want {
		t.Fatalf("count %d want %d", got, want)
	}
	if w := e.Survey(SurveyOptions{}).Width; w != 1 {
		t.Fatalf("width %d want 1", w)
	}
}

func TestIndependentWidth(t *testing.T) {
	e := independent(2, 2)
	// Levels of the full 3x3 grid lattice: 1,2,3,2,1.
	sv := e.Survey(SurveyOptions{})
	sizes := sv.LevelSizes
	want := []int64{1, 2, 3, 2, 1}
	if len(sizes) != len(want) {
		t.Fatalf("levels %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("levels %v want %v", sizes, want)
		}
	}
	if sv.Width != 3 {
		t.Fatalf("width %d", sv.Width)
	}
}

func TestConsistentCut(t *testing.T) {
	// Two processes; p1's event 1 knows p0's event 1 (message p0→p1).
	e := &Execution{Stamps: [][]clock.Vector{
		{{1, 0}},
		{{1, 1}},
	}}
	if !e.ConsistentCut([]int{1, 1}) {
		t.Fatal("full cut should be consistent")
	}
	if e.ConsistentCut([]int{0, 1}) {
		t.Fatal("cut including receive without send accepted")
	}
	if !e.ConsistentCut([]int{1, 0}) {
		t.Fatal("send without receive should be consistent")
	}
	if !e.ConsistentCut([]int{0, 0}) {
		t.Fatal("empty cut should be consistent")
	}
	if got := e.Survey(SurveyOptions{}).Count; got != 3 {
		t.Fatalf("count %d want 3", got)
	}
}

func TestConsistentCutPanics(t *testing.T) {
	e := independent(2, 1)
	for _, cut := range [][]int{{0}, {0, 5}, {-1, 0}} {
		cut := cut
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ConsistentCut(%v) did not panic", cut)
				}
			}()
			e.ConsistentCut(cut)
		}()
	}
}

func TestEnumerateLimit(t *testing.T) {
	e := independent(3, 3)
	if got := e.Survey(SurveyOptions{Limit: 10}).Count; got != 10 {
		t.Fatalf("limited count %d", got)
	}
	var visited int
	e.Enumerate(0, func(cut []int) bool {
		visited++
		return visited < 5
	})
	if visited != 5 {
		t.Fatalf("early stop visited %d", visited)
	}
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	// Random small executions: pruned enumeration must agree with a naive
	// check of every cut.
	r := stats.NewRNG(77)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(2)
		e := randomExecution(r, n, 3)
		fast := e.Survey(SurveyOptions{}).Count
		var slow int64
		cut := make([]int, n)
		var rec func(i int)
		rec = func(i int) {
			if i == n {
				if e.ConsistentCut(cut) {
					slow++
				}
				return
			}
			for c := 0; c <= len(e.Stamps[i]); c++ {
				cut[i] = c
				rec(i + 1)
			}
		}
		rec(0)
		if fast != slow {
			t.Fatalf("trial %d: pruned %d brute %d", trial, fast, slow)
		}
	}
}

// randomExecution builds an execution of n processes with p events each
// and random strobe-style merges: each new event merges a random earlier
// strobe 70 % of the time (models delayed arrival).
func randomExecution(r *stats.RNG, n, p int) *Execution {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = p
	}
	return strobedExecution(r, counts, 0.7, 0)
}

func TestStrobeSlimsLattice(t *testing.T) {
	// The slim lattice postulate, in miniature: merging strobes yields no
	// more consistent cuts than the fully independent execution, and a
	// Δ=0 chain yields the fewest.
	r := stats.NewRNG(5)
	n, p := 3, 3
	full := independent(n, p).Survey(SurveyOptions{}).Count
	strobed := randomExecution(r, n, p).Survey(SurveyOptions{}).Count
	linear := chain(n, p).Survey(SurveyOptions{}).Count
	if !(linear <= strobed && strobed <= full) {
		t.Fatalf("lattice sizes not ordered: linear=%d strobed=%d full=%d",
			linear, strobed, full)
	}
	if linear != int64(n*p+1) {
		t.Fatalf("linear lattice size %d", linear)
	}
}

func TestPath(t *testing.T) {
	e := independent(2, 2)
	path := e.Path()
	// 4 events, one per instant (times are distinct) plus the empty cut.
	if len(path) != 5 {
		t.Fatalf("path length %d", len(path))
	}
	first := path[0]
	last := path[len(path)-1]
	if first[0] != 0 || first[1] != 0 {
		t.Fatalf("path start %v", first)
	}
	if last[0] != 2 || last[1] != 2 {
		t.Fatalf("path end %v", last)
	}
	// Each step includes at least one more event.
	for i := 1; i < len(path); i++ {
		prev, cur := 0, 0
		for j := range path[i] {
			prev += path[i-1][j]
			cur += path[i][j]
		}
		if cur <= prev {
			t.Fatalf("path not monotone at %d", i)
		}
	}
}

func TestPathSimultaneousEvents(t *testing.T) {
	e := &Execution{
		Stamps: [][]clock.Vector{{{1, 0}}, {{0, 1}}},
		Times:  [][]sim.Time{{10}, {10}},
	}
	path := e.Path()
	if len(path) != 2 {
		t.Fatalf("simultaneous events should advance together: %v", path)
	}
}

func TestPathConsistentInvariant(t *testing.T) {
	r := stats.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		e := randomExecution(r, 2+r.Intn(3), 4)
		if !e.PathConsistentAlong(e.Path()) {
			t.Fatalf("trial %d: actual path hit an inconsistent cut", trial)
		}
	}
}

func TestPathWithoutTimesPanics(t *testing.T) {
	e := &Execution{Stamps: [][]clock.Vector{{{1}}}}
	defer func() {
		if recover() == nil {
			t.Fatal("Path without times did not panic")
		}
	}()
	e.Path()
}

func TestNumCutsSaturates(t *testing.T) {
	const sat = int64(1) << 62
	cases := []struct {
		name string
		n, p int
		want int64
	}{
		// 41^40 overflows int64 by a huge margin.
		{"far overflow", 40, 40, sat},
		// 2^63 wraps negative in one multiplication step.
		{"wrap negative", 63, 1, sat},
		// Exactly 2^62 cuts: the saturation boundary itself.
		{"exact boundary", 62, 1, sat},
		// 2^61 is the largest power of two below the cap: no saturation.
		{"just below", 61, 1, int64(1) << 61},
	}
	for _, c := range cases {
		if got := independent(c.n, c.p).NumCuts(); got != c.want {
			t.Errorf("%s: NumCuts(independent(%d,%d)) = %d, want %d",
				c.name, c.n, c.p, got, c.want)
		}
	}
}

func TestEventsCount(t *testing.T) {
	if independent(3, 4).Events() != 12 {
		t.Fatal("events count")
	}
}

// TestPrefixClampsDanglingReferences: p1's first event knows two events of
// p0, but the one-event prefix keeps only p0's first. Prefix must clamp
// the reference to the kept prefix — without it the full prefix cut reads
// inconsistent — clone rather than touch the recorded stamps, and report
// whether every process had p events to give.
func TestPrefixClampsDanglingReferences(t *testing.T) {
	ex := &Execution{
		Stamps: [][]clock.Vector{{{1, 0}, {2, 0}, {3, 0}}, {{2, 1}, {3, 2}}},
		Times:  [][]sim.Time{{10, 20, 30}, {25, 35}},
	}
	pre, full := ex.Prefix(1)
	if !full || pre.Events() != 2 {
		t.Fatalf("Prefix(1): %d events, full %v; want 2, true", pre.Events(), full)
	}
	if !pre.ConsistentCut([]int{1, 1}) {
		t.Errorf("the full prefix cut is inconsistent: stamps %v", pre.Stamps)
	}
	if n := pre.Survey(SurveyOptions{}).Count; n != 3 {
		t.Errorf("prefix lattice has %d consistent cuts, want 3", n)
	}
	if ex.Stamps[1][0][0] != 2 || len(pre.Times[1]) != 1 || pre.Times[1][0] != 25 {
		t.Errorf("Prefix touched the recorded stamps or lost the times: %v, %v", ex.Stamps, pre.Times)
	}
	if _, full := ex.Prefix(3); full {
		t.Error("Prefix(3) reports every process full, but p1 has 2 events")
	}
	if pre, full := (*Execution)(nil).Prefix(1); pre != nil || full {
		t.Error("a nil execution has a prefix")
	}
}
