package core

import (
	"reflect"
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/intervals"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// Soundness of the conjunctive checker: on fuzzed strobe-stamped
// executions, delivered in fuzzed interleavings, every matched interval set
// must genuinely satisfy the modality's pairwise relation. (Completeness
// on specific constructions is covered by the deterministic tests.)

// What one delivery or match is, as conjunctiveSoundness sees it. The
// tallies prove the fixed-seed draw reaches every path OnInterval and
// match take.
const (
	conjInOrder      = iota // a process's next undelivered interval
	conjOutOfOrder          // one delivered ahead of an undelivered earlier one
	conjRepeat              // a re-delivery still queued or above the consumed mark: a duplicate
	conjLate                // a re-delivery below the consumed mark: dropped
	conjPossibly            // a Possibly match
	conjBorderline          // a Possibly match whose intervals do not definitely overlap
	conjDefinitely          // a Definitely match
	conjPossiblyOnly        // a run where Possibly matched more sets than Definitely
	conjCases
)

// conjunctiveSoundness decodes ops into a strobe execution of n processes
// and a delivery schedule of the conjunct intervals it closes, feeds the
// schedule to a Possibly and a Definitely checker side by side, delivers
// whatever is left in order at the end, and demands of every matched set
// one interval per process, each exactly as its process reported it, that
// pairwise satisfies the checker's modality — and as many occurrences as
// matches. Each op is one byte b, p = (b>>2) % n and k = (b>>2) / n:
// b&3 == 0 is an event at p, which opens or closes p's conjunct interval
// and strobes; 1 is the same after p merges the stamp published k % 4
// events ago (a strobe delivered late, or not at all if no op names it); 2 delivers p's earliest undelivered interval;
// 3 delivers, by k % 3, p's second undelivered interval (out of order),
// re-delivers its last delivered one, or re-delivers its first.
func conjunctiveSoundness(t *testing.T, n int, ops []byte) (seen [conjCases]int) {
	t.Helper()
	clocks := make([]*clock.StrobeVector, n)
	for i := range clocks {
		clocks[i] = clock.NewStrobeVector(i, n)
	}
	open := make([]clock.Vector, n)
	openAt := make([]sim.Time, n)
	streams := make([][]IntervalMsg, n) // closed intervals, by process and Index
	sent := make([][]bool, n)           // delivered at least once
	order := make([][]int, n)           // indices in first-delivery order
	var published []clock.Vector
	checkers := [...]*ConjunctiveChecker{
		NewConjunctiveChecker(n, predicate.Possibly),
		NewConjunctiveChecker(n, predicate.Definitely),
	}
	// Notify runs before the queues advance: their heads are the match.
	var sets [len(checkers)][][]IntervalMsg
	for k, c := range checkers {
		c.Notify = func(Occurrence) {
			set := make([]IntervalMsg, n)
			for i, q := range c.queues {
				set[i] = q[0]
			}
			sets[k] = append(sets[k], set)
		}
	}
	deliver := func(p, i int) {
		m := streams[p][i]
		if sent[p][i] {
			late := false
			for _, c := range checkers {
				late = late || i < c.next[p]
			}
			if late {
				seen[conjLate]++
			} else {
				seen[conjRepeat]++
			}
		} else {
			sent[p][i] = true
			order[p] = append(order[p], i)
		}
		for _, c := range checkers {
			c.OnInterval(m, 0)
		}
	}
	// unsent returns p's k-th undelivered interval, or -1.
	unsent := func(p, k int) int {
		for i, done := range sent[p] {
			if !done {
				if k == 0 {
					return i
				}
				k--
			}
		}
		return -1
	}
	for step, b := range ops {
		p, k := int(b>>2)%n, int(b>>2)/n
		switch b & 3 {
		case 0, 1:
			if b&3 == 1 && len(published) > 0 {
				clocks[p].OnStrobe(published[len(published)-1-k%min(4, len(published))])
			}
			v := clocks[p].Strobe()
			published = append(published, v)
			if open[p] == nil {
				open[p], openAt[p] = v, sim.Time(step)
				continue
			}
			streams[p] = append(streams[p], IntervalMsg{
				Proc: p, Index: len(streams[p]),
				Open: open[p], Close: v,
				OpenAt: openAt[p], CloseAt: sim.Time(step),
			})
			sent[p] = append(sent[p], false)
			open[p] = nil
		case 2:
			if i := unsent(p, 0); i >= 0 {
				seen[conjInOrder]++
				deliver(p, i)
			}
		case 3:
			switch k % 3 {
			case 0:
				if i := unsent(p, 1); i >= 0 {
					seen[conjOutOfOrder]++
					deliver(p, i)
				}
			case 1:
				if len(order[p]) > 0 {
					deliver(p, order[p][len(order[p])-1])
				}
			default:
				if len(order[p]) > 0 {
					deliver(p, order[p][0])
				}
			}
		}
	}
	for p := range streams {
		for i := unsent(p, 0); i >= 0; i = unsent(p, 0) {
			deliver(p, i)
		}
	}

	for ci, c := range checkers {
		if got := len(sets[ci]); got != len(c.Occurrences()) {
			t.Fatalf("%v: %d matched sets, %d occurrences", c.modality, got, len(c.Occurrences()))
		}
		for k, set := range sets[ci] {
			if len(set) != n {
				t.Fatalf("%v: matched set %d holds %d intervals for %d processes", c.modality, k, len(set), n)
			}
			definitely := true
			for i, iv := range set {
				if iv.Proc != i || iv.Index < 0 || iv.Index >= len(streams[i]) || !reflect.DeepEqual(iv, streams[i][iv.Index]) {
					t.Fatalf("%v: matched set %d holds %+v at process %d, not an interval it reported", c.modality, k, iv, i)
				}
				for j := i + 1; j < n; j++ {
					x, y := po(set[i]), po(set[j])
					definitely = definitely && intervals.DefinitelyOverlap(x, y)
					if c.modality == predicate.Possibly && !intervals.PossiblyOverlap(x, y) ||
						c.modality == predicate.Definitely && !intervals.DefinitelyOverlap(x, y) {
						t.Fatalf("%v: unsound match %d: %+v vs %+v", c.modality, k, set[i], set[j])
					}
				}
			}
			if c.modality == predicate.Definitely {
				seen[conjDefinitely]++
				continue
			}
			seen[conjPossibly]++
			if !definitely {
				seen[conjBorderline]++
			}
			if c.Occurrences()[k].Borderline == definitely {
				t.Fatalf("Possibly: match %d is borderline %v, its intervals definitely overlap %v", k, c.Occurrences()[k].Borderline, definitely)
			}
		}
	}
	if len(checkers[0].Occurrences()) > len(checkers[1].Occurrences()) {
		seen[conjPossiblyOnly]++
	}
	return seen
}

// TestConjunctiveSoundnessFuzz is the property at a fixed seed: fleets of
// two to four processes, executions whose delayed strobes leave many
// intervals concurrent, deliveries out of order, repeated and late.
func TestConjunctiveSoundnessFuzz(t *testing.T) {
	r := stats.NewRNG(99)
	var seen [conjCases]int
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 40+r.Intn(200))
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		for c, k := range conjunctiveSoundness(t, 2+r.Intn(3), ops) {
			seen[c] += k
		}
	}
	t.Logf("cases: %v", seen)
	for c, k := range seen {
		if k < 30 {
			t.Errorf("the draw reached case %d only %d times", c, k)
		}
	}
}

// FuzzConjunctiveSoundness is the same body under the native fuzzer, the
// first byte choosing n in [2, 4]. The checked-in corpus in
// testdata/fuzz/FuzzConjunctiveSoundness (n = 2) has a Definitely match,
// a borderline Possibly match, and one entry per hostile delivery:
// out-of-order, repeat and late.
func FuzzConjunctiveSoundness(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		conjunctiveSoundness(t, 2+int(data[0])%3, data[1:])
	})
}
