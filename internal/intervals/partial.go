package intervals

import "pervasive/internal/clock"

// POInterval is an interval of a process's execution in a partial order of
// events: Start and End are the vector timestamps of its first and last
// events, with Start ≤ End in the vector order.
type POInterval struct {
	Start, End clock.Vector
}

// Precedes reports that x wholly precedes y: x's last event happens-before
// y's first event, so in every consistent observation x ends before y
// starts.
func Precedes(x, y POInterval) bool {
	return x.End.HappensBefore(y.Start)
}

// PossiblyOverlap reports the Possibly(overlap) modality [10]: there is at
// least one consistent observation in which x and y intersect, i.e.
// neither wholly precedes the other.
//
//lint:allow testonly(oracle: FuzzConjunctiveSoundness holds the conjunctive checker's Possibly matches to it)
func PossiblyOverlap(x, y POInterval) bool {
	return !Precedes(x, y) && !Precedes(y, x)
}

// DefinitelyOverlap reports the Definitely(overlap) modality [10]: the
// intervals intersect in every consistent observation. This holds exactly
// when each interval's start happens-before the other's end.
func DefinitelyOverlap(x, y POInterval) bool {
	return x.Start.HappensBefore(y.End) && y.Start.HappensBefore(x.End)
}
