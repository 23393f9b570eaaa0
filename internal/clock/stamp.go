// Package clock implements every clock family in the paper's design space
// for implementing time (Section 3.2.1):
//
//   - Lamport logical scalar clocks (rules SC1–SC3, [26]);
//   - Mattern/Fidge causality-tracking vector clocks (rules VC1–VC3, [13,27]);
//   - strobe scalar clocks (rules SSC1–SSC2, Section 4.2.2);
//   - strobe vector clocks (rules SVC1–SVC2, Section 4.2.1);
//   - drifting hardware clocks and ε-synchronized physical clocks
//     (Section 3.2.1.a(i)–(ii));
//   - physical (asynchronous) vector clocks (Section 3.2.1.b.ii).
//
// The strobe clocks differ from the causal clocks exactly as Section 4.2.3
// describes: a strobe receiver merges but does not tick, strobes are control
// messages broadcast at relevant (sensed) events, and causal clocks tick on
// receive and are piggybacked only on computation messages.
package clock

// Order is the outcome of comparing two timestamps in a partial order.
type Order int

// Possible comparison outcomes.
const (
	Same Order = iota
	Before
	After
	Concurrent
)

// String renders the order relation.
func (o Order) String() string {
	switch o {
	case Same:
		return "="
	case Before:
		return "<"
	case After:
		return ">"
	default:
		return "||"
	}
}

// Vector is a vector timestamp: component i counts (known) relevant events
// at process i. Vectors are compared componentwise; incomparable vectors
// are concurrent.
type Vector []uint64

// NewVector returns an all-zero vector for n processes.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Compare returns the partial-order relation between v and w. Vectors of
// different lengths are compared over the shorter prefix with missing
// components treated as zero.
func (v Vector) Compare(w Vector) Order {
	leq, geq := true, true
	n := len(v)
	if len(w) > n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(v) {
			a = v[i]
		}
		if i < len(w) {
			b = w[i]
		}
		if a < b {
			geq = false
		}
		if a > b {
			leq = false
		}
	}
	switch {
	case leq && geq:
		return Same
	case leq:
		return Before
	case geq:
		return After
	default:
		return Concurrent
	}
}

// HappensBefore reports v → w (strictly less in the partial order).
func (v Vector) HappensBefore(w Vector) bool { return v.Compare(w) == Before }

// ConcurrentWith reports that neither v → w nor w → v.
func (v Vector) ConcurrentWith(w Vector) bool { return v.Compare(w) == Concurrent }

// MergeFrom sets v to the componentwise maximum of v and w, growing v if
// needed, and returns v.
func (v *Vector) MergeFrom(w Vector) Vector {
	for len(*v) < len(w) {
		*v = append(*v, 0)
	}
	for i, x := range w {
		if x > (*v)[i] {
			(*v)[i] = x
		}
	}
	return *v
}

// Reset zeroes every component in place. It is the epoch-reset rule:
// when a process rejoins with a fresh incarnation (a bumped epoch), the
// checker's per-sender reconstruction must forget the dead incarnation's
// history rather than merge across the crash.
func (v Vector) Reset() {
	for i := range v {
		v[i] = 0
	}
}
