package core

import (
	"math"
	"reflect"
	"testing"

	"pervasive/internal/checker"
	"pervasive/internal/clock"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// What one drawn strobe is to the checker at the moment it arrives, judged
// against the model. The tallies prove the fixed-seed draw reaches every
// path through OnStrobe that reads or writes the view.
const (
	strobeBelow       = iota // proc < 0
	strobeBeyond             // proc >= n
	strobeOldEpoch           // epoch below the process's current one
	strobeEpochBump          // epoch above it: order state resets, the view does not
	strobeStaleSeq           // seq at or below the last applied
	strobeApplied            // applied to a column that exists
	strobeNewColumn          // applied, and the first write of its name
	strobeProbed             // applied concurrently with another process's latest event: four-state probe
	strobeFlipped            // applied, and the predicate changed
	strobeDemoted            // applied a value that demotes a linear clause of linearPred
	strobeUndeclared         // applied y@0, which undeclaredPred reads without declaring, and flipped it
	strobeRaceBlinded        // applied, and a race-aware checker marked a race no race-blind one can see
	strobeNaiveOnly          // applied, and only the naive criterion marked a race: its early return decided
	strobeCases
)

// viewNames are the variables a drawn strobe may write; viewPred also
// reads w, which none ever does.
var viewNames = [...]string{"x", "y", "z"}

var viewPred = predicate.MustParse("sum(x) + min(y) >= max(z) + y@1 + max(w) + 1")

// viewFractions are the values a strobe draws one time in four: sums of
// them round differently in different orders (0.1 + 0.2 + 0.7 is 1, but
// 0.7 + 0.2 + 0.1 is not), so they demote linearPred's clauses.
var viewFractions = [...]float64{0.1, 0.2, 0.7, 0.5}

// linearPred's two clauses are linear: each comparison side is a running
// sum in the incremental evaluator until a drawn fraction demotes it.
var linearPred = predicate.MustParse("x@0 + x@1 + x@2 >= 1 && sum(y) - z@0 < 3")

// undeclaredPred reads y@0 but declares only x@1: an untracked clause,
// re-evaluated on every report.
var undeclaredPred = predicate.FuncCond{
	F:    func(s predicate.State) bool { return s.Get(0, "y")+s.Get(1, "x") >= 2 },
	Keys: []predicate.Key{{Proc: 1, Name: "x"}},
	Desc: "y@0 + x@1 >= 2",
}

// treePreds are the predicates trees are held to the flat checker on,
// strobe by strobe.
var treePreds = [...]predicate.Cond{viewPred, linearPred, undeclaredPred}

// raceModes are the race criteria production runs through the tree: the
// four-state race-aware probe (vector strobes), none (race-blind: scalar
// strobes and fleets), and A2's naive concurrency flagging.
var raceModes = [...]struct {
	name         string
	aware, naive bool
}{{"aware", true, false}, {"blind", false, false}, {"naive", true, true}}

const (
	modeAware = iota
	modeBlind
	modeNaive
)

// mapState is the model's predicate.State: a map, a missing key reading
// as zero.
type mapState struct {
	n    int
	vals map[predicate.Key]float64
}

func (m mapState) Get(proc int, name string) float64 {
	return m.vals[predicate.Key{Proc: proc, Name: name}]
}

func (m mapState) NumProcs() int { return m.n }

// checkerVsModel decodes ops into strobes, drives a race-aware
// StrobeChecker over n processes and a mapState model of its view
// through them side by side, and after every strobe demands the same value
// at every (process, name) pair — out-of-range processes and the
// never-written name included — the same bits from every aggregate over
// both, the same predicate verdict, columns that agree with Get, and the
// same applied/stale split. Beside it, for each of treePreds and each of
// raceModes, a flat checker and checker trees at R = 1, 2 and n take the
// same strobes and must keep the same occurrences, markers and
// applied/stale counts. A strobe is 3 + n bytes: proc drawn from [-2, n+2); name and a
// value in [0, 4), small so the predicate flips often — or, one time in
// four, from viewFractions; seq and epoch relative to the process's current ones (seq −2 … +5,
// epoch −1 one time in eight and +1 one time in eight); then one byte per
// vector component, two bits each, so concurrent stamps are common and the
// race probe sets and restores view cells on most applies.
func checkerVsModel(t *testing.T, n int, ops []byte) (seen [strobeCases]int) {
	t.Helper()
	c := NewVectorChecker(n, viewPred)
	model := mapState{n: n, vals: map[predicate.Key]float64{}}
	// flats[k][md] and trees[k][md] check treePreds[k] in raceModes[md];
	// shadow tallies demotions.
	var flats [len(treePreds)][len(raceModes)]*StrobeChecker
	var trees [len(treePreds)][len(raceModes)][]*checker.Tree
	for k, pred := range treePreds {
		for md, mode := range raceModes {
			f := c
			if k > 0 || md != modeAware {
				f = newStrobeChecker(n, pred, mode.aware)
			}
			f.NaiveRace = mode.naive
			flats[k][md] = f
			for _, r := range [...]int{1, 2, n} {
				tr := checker.New(checker.Config{N: n, Pred: pred, Fanout: r, RaceAware: mode.aware})
				tr.NaiveRace = mode.naive
				trees[k][md] = append(trees[k][md], tr)
			}
		}
	}
	var shadow predicate.Incremental
	shadow.Init(linearPred, n)
	lastSeq, lastEpoch := make([]int, n), make([]int, n)
	var applied, stale int64
	holds := false
	for step := 0; len(ops) >= 3+n; step++ {
		m := StrobeMsg{
			Proc:  int(ops[0])%(n+4) - 2,
			Var:   viewNames[int(ops[1]&3)%len(viewNames)],
			Value: float64(ops[1] >> 2 & 3),
			Vec:   clock.NewVector(n),
		}
		if ops[1]>>4&3 == 3 {
			m.Value = viewFractions[ops[1]>>2&3]
		}
		seqStep, epochStep := int(ops[2]&7)-2, 0
		switch ops[2] >> 3 & 7 {
		case 0:
			epochStep = -1
		case 1:
			epochStep = 1
		}
		for i := range m.Vec {
			m.Vec[i] = uint64(ops[3+i] & 3)
		}
		ops = ops[3+n:]

		apply := false
		switch {
		case m.Proc < 0:
			seen[strobeBelow]++
		case m.Proc >= n:
			seen[strobeBeyond]++
		default:
			m.Epoch = lastEpoch[m.Proc] + epochStep
			if epochStep > 0 {
				seen[strobeEpochBump]++
				lastEpoch[m.Proc], lastSeq[m.Proc] = m.Epoch, 0
			}
			m.Seq = lastSeq[m.Proc] + seqStep
			switch {
			case epochStep < 0:
				seen[strobeOldEpoch]++
			case m.Seq <= lastSeq[m.Proc]:
				seen[strobeStaleSeq]++
			default:
				apply = true
			}
		}
		if apply {
			lastSeq[m.Proc] = m.Seq
			applied++
			if c.view.Column(m.Var) == nil {
				seen[strobeNewColumn]++
			} else {
				seen[strobeApplied]++
			}
			for j := 0; j < n; j++ {
				if j != m.Proc && c.stamps[j] != nil && c.lastChange[j].valid && m.Vec.ConcurrentWith(c.stamps[j]) {
					seen[strobeProbed]++
					break
				}
			}
			key := predicate.Key{Proc: m.Proc, Name: m.Var}
			demoted, was := shadow.Demoted, undeclaredPred.Holds(model)
			if shadow.Set(key, m.Value); shadow.Demoted > demoted {
				seen[strobeDemoted]++
			}
			model.vals[key] = m.Value
			if now := viewPred.Holds(model); now != holds {
				seen[strobeFlipped]++
				holds = now
			}
			if key == (predicate.Key{Proc: 0, Name: "y"}) && undeclaredPred.Holds(model) != was {
				seen[strobeUndeclared]++
			}
		} else {
			stale++
		}

		now := sim.Time(step + 1)
		blinded, naiveOnly := false, false
		for k := range flats {
			marked := func(md int) int { return len(flats[k][md].Markers()) }
			aware, naive := marked(modeAware), marked(modeNaive)
			for md, f := range flats[k] {
				f.OnStrobe(m, now)
				for _, tr := range trees[k][md] {
					tr.OnReport(checker.Report(m), now)
					if tr.Stat.Applied != f.Applied || tr.Stat.Stale != f.Stale ||
						!reflect.DeepEqual(tr.Occurrences(), f.Occurrences()) || !reflect.DeepEqual(tr.Markers(), f.Markers()) {
						t.Fatalf("step %d (%+v), %v %s at R = %d: applied %d, stale %d, occurrences %v, markers %v; the flat checker %d, %d, %v, %v",
							step, m, treePreds[k], raceModes[md].name, tr.Fanout(), tr.Stat.Applied, tr.Stat.Stale, tr.Occurrences(), tr.Markers(),
							f.Applied, f.Stale, f.Occurrences(), f.Markers())
					}
				}
			}
			awareRace := marked(modeAware) > aware
			blinded = blinded || awareRace
			naiveOnly = naiveOnly || marked(modeNaive) > naive && !awareRace
		}
		if blinded {
			seen[strobeRaceBlinded]++
		}
		if naiveOnly {
			seen[strobeNaiveOnly]++
		}

		if c.Applied != applied || c.Stale != stale {
			t.Fatalf("step %d (%+v): checker applied %d and discarded %d, the model %d and %d", step, m, c.Applied, c.Stale, applied, stale)
		}
		for _, name := range [...]string{"x", "y", "z", "w"} {
			col := c.view.Column(name)
			if col != nil && len(col) != n {
				t.Fatalf("step %d: column %s has %d values for %d processes", step, name, len(col), n)
			}
			for p := -1; p <= n; p++ {
				got, want := c.View(p, name), model.Get(p, name)
				if got != want {
					t.Fatalf("step %d (%+v): View(%d, %s) = %v, the model holds %v", step, m, p, name, got, want)
				}
				if p >= 0 && p < n && col != nil && col[p] != got {
					t.Fatalf("step %d: Column(%s)[%d] = %v, Get says %v", step, name, p, col[p], got)
				}
			}
			for op := predicate.AggSum; op <= predicate.AggMax; op++ {
				agg := predicate.Agg{Op: op, Name: name}
				if got, want := agg.Eval(c.view), agg.Eval(model); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: %v = %v over the view, %v over the model", step, agg, got, want)
				}
			}
		}
		if got := viewPred.Holds(c.view); got != holds || c.cur != holds {
			t.Fatalf("step %d (%+v): predicate %v over the view, checker state %v, model %v", step, m, got, c.cur, holds)
		}
	}
	return seen
}

// TestCheckerViewMatchesMapModel is the property at a fixed seed.
func TestCheckerViewMatchesMapModel(t *testing.T) {
	r := stats.NewRNG(31)
	var seen [strobeCases]int
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(16)
		ops := make([]byte, (3+n)*(20+r.Intn(200)))
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		for k, v := range checkerVsModel(t, n, ops) {
			seen[k] += v
		}
	}
	t.Logf("strobes by case: %v", seen)
	for k, v := range seen {
		if v < 100 {
			t.Errorf("the draw reached case %d only %d times", k, v)
		}
	}
}

// FuzzCheckerView is the same body under the native fuzzer, the first byte
// choosing n in [1, 16]. The checked-in corpus in
// testdata/fuzz/FuzzCheckerView has one entry per view case (n = 4), plus
// fraction-sum (x@2 = 0.7, x@1 = 0.2, x@0 = 0.1: the flat checker's
// x@0 + x@1 + x@2 is 1, a running sum in arrival order falls short) and
// undeclared-read (x@1 = 1, then y@0 = 1 flips undeclaredPred).
func FuzzCheckerView(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		checkerVsModel(t, 1+int(data[0])%16, data[1:])
	})
}
