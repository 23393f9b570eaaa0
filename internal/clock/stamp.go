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

import "math/bits"

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
func NewVector(n int) Vector { return make(Vector, n) } //lint:allow hotpath(a constructor allocates by contract; a sense reaches it only for what a sender keeps — a local replica's stamps, the run record's and a conjunct's snapshots — never for the strobe it sends)

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) } //lint:allow hotpath(a fresh copy by contract: a dense strobe clones only when the stamp of a dead strobe is too small or there is none — the first strobes of a run, and a sender with a Local replica — the run record's copy of a dense stamp, and a sense for a conjunct's interval)

// Compare returns the partial-order relation between v and w. Vectors of
// different lengths are compared over the shorter prefix with missing
// components treated as zero. It returns Concurrent at the first
// component that disagrees the other way from an earlier one.
func (v Vector) Compare(w Vector) Order {
	n := min(len(v), len(w))
	a, b := v[:n], w[:n]
	// lt and gt turn 1 at the first component of v below and above w's; a
	// subtraction's borrow sets them without a branch.
	var lt, gt uint64
	for i, x := range a {
		_, below := bits.Sub64(x, b[i], 0)
		_, above := bits.Sub64(b[i], x, 0)
		lt |= below
		gt |= above
		if lt&gt != 0 {
			return Concurrent
		}
	}
	// The longer vector's tail against the other's zero padding.
	for _, x := range v[n:] {
		if x != 0 {
			gt = 1
			break
		}
	}
	for _, y := range w[n:] {
		if y != 0 {
			lt = 1
			break
		}
	}
	switch {
	case lt&gt != 0:
		return Concurrent
	case lt != 0:
		return Before
	case gt != 0:
		return After
	default:
		return Same
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
