// Package timing implements the relative timing relations of the paper's
// specification design space (Section 3.1.1.a.ii): constraints of the form
// "X before Y", "X overlaps Y", or "X before Y by real time greater than
// 5 seconds" between the occurrence streams of two predicates, using the
// interval algebra of internal/intervals. The motivating application from
// [22] — secure banking, where a biometric key must be presented remotely
// *after* a password was entered across the network — is realized in
// examples/securebank.
package timing

import (
	"fmt"

	"pervasive/internal/intervals"
	"pervasive/internal/sim"
)

// Rel is a relative timing relation between an X interval and a Y
// interval on the single (real-time) axis.
type Rel int

// Supported relations. XBeforeY admits an optional real-time gap window;
// the pure Allen relations need none.
const (
	// XBeforeY: X ends before Y starts, with gap in (MinGap, MaxGap]
	// (MinGap 0 admits X meeting Y; MaxGap 0 means unbounded).
	XBeforeY Rel = iota
	// XOverlapsY: the intervals share at least one instant.
	XOverlapsY
	// XDuringY: X lies within Y.
	XDuringY
	// XMeetsY: X ends within Slack of Y's start.
	XMeetsY
)

// String names the relation.
func (r Rel) String() string {
	switch r {
	case XBeforeY:
		return "X before Y"
	case XOverlapsY:
		return "X overlaps Y"
	case XDuringY:
		return "X during Y"
	default:
		return "X meets Y"
	}
}

// Spec is one relative timing specification.
type Spec struct {
	Rel Rel
	// MinGap/MaxGap bound the real-time gap for XBeforeY ("before by more
	// than MinGap, at most MaxGap"); MaxGap 0 means no upper bound.
	MinGap, MaxGap sim.Duration
	// Slack tolerates boundary jitter for XMeetsY.
	Slack sim.Duration
}

// String renders the spec.
func (s Spec) String() string {
	if s.Rel == XBeforeY && (s.MinGap > 0 || s.MaxGap > 0) {
		if s.MaxGap > 0 {
			return fmt.Sprintf("X before Y by (%v, %v]", s.MinGap, s.MaxGap)
		}
		return fmt.Sprintf("X before Y by > %v", s.MinGap)
	}
	return s.Rel.String()
}

// Holds reports whether the pair (x, y) satisfies the spec.
func (s Spec) Holds(x, y intervals.Span) bool {
	if x.Empty() || y.Empty() {
		return false
	}
	switch s.Rel {
	case XBeforeY:
		if y.Lo < x.Hi {
			return false
		}
		gap := y.Lo - x.Hi
		if s.MinGap > 0 && gap <= s.MinGap {
			return false
		}
		if s.MaxGap > 0 && gap > s.MaxGap {
			return false
		}
		return true
	case XOverlapsY:
		return intervals.Intersects(x, y)
	case XDuringY:
		rel := intervals.Classify(x, y)
		return rel == intervals.During || rel == intervals.Starts ||
			rel == intervals.Finishes || rel == intervals.Equals
	case XMeetsY:
		d := y.Lo - x.Hi
		if d < 0 {
			d = -d
		}
		return d <= s.Slack
	}
	return false
}

// Match is one satisfied (x, y) pair, as indices into the two streams.
type Match struct {
	XIdx, YIdx int
}

// Matcher pairs the occurrence streams of X and Y under one spec.
type Matcher struct {
	Spec Spec
}

// PairsOneToOne matches every Y to at most one X and vice versa: each Y
// takes the latest still-unconsumed X that satisfies the spec (for
// XBeforeY this is the most recent qualifying password for each biometric
// presentation — the session semantics of [22]). Streams must be in
// increasing start order.
func (m Matcher) PairsOneToOne(xs, ys []intervals.Span) []Match {
	used := make([]bool, len(xs))
	var out []Match
	for yi, y := range ys {
		best := -1
		for xi, x := range xs {
			if !used[xi] && m.Spec.Holds(x, y) {
				best = xi // keep scanning: later xs start later — prefer the latest
			}
		}
		if best >= 0 {
			used[best] = true
			out = append(out, Match{XIdx: best, YIdx: yi})
		}
	}
	return out
}

// UnmatchedYOneToOne returns Y indices left unmatched by PairsOneToOne.
func (m Matcher) UnmatchedYOneToOne(xs, ys []intervals.Span) []int {
	matched := make([]bool, len(ys))
	for _, mt := range m.PairsOneToOne(xs, ys) {
		matched[mt.YIdx] = true
	}
	var out []int
	for i, ok := range matched {
		if !ok {
			out = append(out, i)
		}
	}
	return out
}
