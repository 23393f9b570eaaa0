package intervals

import (
	"testing"

	"pervasive/internal/clock"
)

// iv builds a POInterval from literal vectors.
func iv(start, end clock.Vector) POInterval {
	return POInterval{Start: start, End: end}
}

func TestPrecedes(t *testing.T) {
	// x entirely causally precedes y.
	x := iv(clock.Vector{1, 0}, clock.Vector{2, 0})
	y := iv(clock.Vector{2, 1}, clock.Vector{2, 3})
	if !Precedes(x, y) || Precedes(y, x) {
		t.Fatal("precedence misreported")
	}
	if PossiblyOverlap(x, y) {
		t.Fatal("wholly ordered intervals cannot possibly overlap")
	}
}

func TestPossiblyButNotDefinitely(t *testing.T) {
	// Two intervals on independent processes with no communication:
	// concurrent endpoints — possibly overlap, but not definitely.
	x := iv(clock.Vector{1, 0}, clock.Vector{2, 0})
	y := iv(clock.Vector{0, 1}, clock.Vector{0, 2})
	if !PossiblyOverlap(x, y) {
		t.Fatal("independent intervals should possibly overlap")
	}
	if DefinitelyOverlap(x, y) {
		t.Fatal("independent intervals must not definitely overlap")
	}
}

func TestDefinitelyOverlap(t *testing.T) {
	// Cross communication: x starts before y ends and vice versa.
	// x = [ (1,0) .. (3,2) ], y = [ (0,1) .. (2,3) ] with message exchange.
	x := iv(clock.Vector{1, 0}, clock.Vector{3, 2})
	y := iv(clock.Vector{0, 1}, clock.Vector{2, 3})
	if !DefinitelyOverlap(x, y) {
		t.Fatal("cross-linked intervals should definitely overlap")
	}
	// Definitely implies possibly.
	if !PossiblyOverlap(x, y) {
		t.Fatal("definitely-overlap must imply possibly-overlap")
	}
}
