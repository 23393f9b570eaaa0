package core

import (
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

func TestDivergenceBasics(t *testing.T) {
	a := []Occurrence{{Start: 0, End: 50}}
	b := []Occurrence{{Start: 10, End: 60}}
	// XOR = [0,10) ∪ [50,60) = 20 of 100.
	if d := Divergence(a, b, 100); d != 0.2 {
		t.Fatalf("divergence %v", d)
	}
	if d := Divergence(a, a, 100); d != 0 {
		t.Fatalf("self divergence %v", d)
	}
	if d := Divergence(nil, nil, 100); d != 0 {
		t.Fatalf("empty divergence %v", d)
	}
	if Divergence(a, b, 0) != 0 {
		t.Fatal("zero horizon should be 0")
	}
}

func TestDivergenceOpenOccurrence(t *testing.T) {
	a := []Occurrence{{Start: 90, End: 0}} // open: clamps to horizon
	if d := Divergence(a, nil, 100); d != 0.1 {
		t.Fatalf("open-occurrence divergence %v", d)
	}
}

// The shapes a drawn occurrence list must reach.
const (
	divOpen     = iota // an occurrence with End == 0, which runs to the horizon
	divOverlap         // two occurrences sharing an instant
	divAdjacent        // one occurrence ending where another starts
	divEmpty           // an occurrence with End ≤ Start, End ≠ 0
	divPast            // an occurrence starting or ending past the horizon
	divCases
)

// drawOccurrences draws a short occurrence list, unsorted, over a horizon
// of at most 40 µs, and marks the shapes it contains.
func drawOccurrences(r *stats.RNG, horizon sim.Time, seen *[divCases]int) []Occurrence {
	occ := make([]Occurrence, r.Intn(6))
	for i := range occ {
		start := sim.Time(r.Intn(int(horizon) + 8))
		var end sim.Time
		switch r.Intn(6) {
		case 0: // open
		case 1: // empty or reversed
			end = start - sim.Time(r.Intn(3))
		case 2: // adjacent to an earlier draw
			if i > 0 && occ[i-1].End > 0 {
				start = occ[i-1].End
			}
			end = start + 1 + sim.Time(r.Intn(8))
		default:
			end = start + 1 + sim.Time(r.Intn(12))
		}
		occ[i] = Occurrence{Start: start, End: end}
	}
	var shapes [divCases]bool
	for i, o := range occ {
		shapes[divOpen] = shapes[divOpen] || o.End == 0
		shapes[divEmpty] = shapes[divEmpty] || (o.End != 0 && o.End <= o.Start)
		shapes[divPast] = shapes[divPast] || o.Start >= horizon || o.End > horizon
		for _, p := range occ[:i] {
			if o.End > o.Start && p.End > p.Start {
				shapes[divOverlap] = shapes[divOverlap] || (o.Start < p.End && p.Start < o.End)
				shapes[divAdjacent] = shapes[divAdjacent] || o.Start == p.End || p.Start == o.End
			}
		}
	}
	for k, ok := range shapes {
		if ok {
			seen[k]++
		}
	}
	return occ
}

// heldAt is the per-instant reading of an occurrence list: some occurrence
// covers t, an open one (End == 0) up to the horizon.
func heldAt(occ []Occurrence, t sim.Time) bool {
	for _, o := range occ {
		if o.Start <= t && (o.End == 0 || t < o.End) {
			return true
		}
	}
	return false
}

// TestDivergenceMatchesInstantXor holds the interval sweep to a count of
// the instants in [0, horizon) at which exactly one of two drawn lists
// holds, over unsorted lists with open ends, overlaps, adjacent and empty
// occurrences and occurrences past the horizon, each reached ≥ 30 times.
func TestDivergenceMatchesInstantXor(t *testing.T) {
	r := stats.NewRNG(41)
	var seen [divCases]int
	for trial := 0; trial < 2000; trial++ {
		horizon := sim.Time(1 + r.Intn(40))
		a := drawOccurrences(r, horizon, &seen)
		b := drawOccurrences(r, horizon, &seen)
		var differ int
		for at := sim.Time(0); at < horizon; at++ {
			if heldAt(a, at) != heldAt(b, at) {
				differ++
			}
		}
		if got, want := Divergence(a, b, horizon), float64(differ)/float64(horizon); got != want {
			t.Fatalf("horizon %d\na = %+v\nb = %+v\ndivergence %v, per-instant XOR %v", horizon, a, b, got, want)
		}
	}
	t.Logf("lists by shape: %v", seen)
	for k, n := range seen {
		if n < 30 {
			t.Errorf("the draw reached shape %d only %d times", k, n)
		}
	}
}
