package core

import (
	"math"
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/predicate"
	"pervasive/internal/stats"
)

// What one drawn strobe is to the checker at the moment it arrives, judged
// against the model. The tallies prove the fixed-seed draw reaches every
// path through OnStrobe that reads or writes the view.
const (
	strobeBelow     = iota // proc < 0
	strobeBeyond           // proc >= n
	strobeOldEpoch         // epoch below the process's current one
	strobeEpochBump        // epoch above it: order state resets, the view does not
	strobeStaleSeq         // seq at or below the last applied
	strobeApplied          // applied to a column that exists
	strobeNewColumn        // applied, and the first write of its name
	strobeProbed           // applied concurrently with another process's latest event: four-state probe
	strobeFlipped          // applied, and the predicate changed
	strobeCases
)

// viewNames are the variables a drawn strobe may write; viewPred also
// reads w, which none ever does.
var viewNames = [...]string{"x", "y", "z"}

var viewPred = predicate.MustParse("sum(x) + min(y) >= max(z) + y@1 + max(w) + 1")

// checkerVsModel decodes ops into strobes, drives a race-aware
// StrobeChecker over n processes and a predicate.MapState model of its view
// through them side by side, and after every strobe demands the same value
// at every (process, name) pair — out-of-range processes and the
// never-written name included — the same bits from every aggregate over
// both, the same predicate verdict, columns that agree with Get, and the
// same applied/stale split. A strobe is 3 + n bytes: proc drawn from
// [-2, n+2); name and a value in [0, 4), small so the predicate flips
// often; seq and epoch relative to the process's current ones (seq −2 … +5,
// epoch −1 one time in eight and +1 one time in eight); then one byte per
// vector component, two bits each, so concurrent stamps are common and the
// race probe sets and restores view cells on most applies.
func checkerVsModel(t *testing.T, n int, ops []byte) (seen [strobeCases]int) {
	t.Helper()
	c := NewVectorChecker(n, viewPred)
	model := predicate.MapState{N: n, Vals: map[predicate.Key]float64{}}
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
			model.Vals[predicate.Key{Proc: m.Proc, Name: m.Var}] = m.Value
			if now := viewPred.Holds(model); now != holds {
				seen[strobeFlipped]++
				holds = now
			}
		} else {
			stale++
		}

		c.OnStrobe(m, 0)

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
// testdata/fuzz/FuzzCheckerView has one entry per case (n = 4).
func FuzzCheckerView(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		checkerVsModel(t, 1+int(data[0])%16, data[1:])
	})
}
