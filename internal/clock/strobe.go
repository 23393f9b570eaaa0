package clock

// StrobeScalar is a strobe scalar clock following rules SSC1–SSC2
// (Section 4.2.2). It is lightweight — a strobe carries O(1) state — but
// weaker than the strobe vector clock: under Δ > 0 it can induce both
// false positives and false negatives in predicate detection (Section 3.3).
//
// The zero value is ready to use.
type StrobeScalar struct {
	c uint64
}

// Read returns the current clock value.
func (s *StrobeScalar) Read() uint64 { return s.c }

// Strobe applies SSC1 on a relevant (sensed) event: tick the local
// component and return the value that the caller must system-wide
// broadcast as a control message.
func (s *StrobeScalar) Strobe() uint64 {
	s.c++
	return s.c
}

// OnStrobe applies SSC2 on receipt of strobe t: catch up to the latest
// known time, without ticking. (Contrast with Lamport SC3, which ticks on
// receive — this is difference 2 of Section 4.2.3.)
func (s *StrobeScalar) OnStrobe(t uint64) {
	if t > s.c {
		s.c = t
	}
}

// StrobeVector is a strobe vector clock following rules SVC1–SVC2
// (Section 4.2.1). Construct with NewStrobeVector.
type StrobeVector struct {
	me int
	v  Vector
}

// NewStrobeVector returns process me's strobe vector clock in an n-process
// system.
func NewStrobeVector(me, n int) *StrobeVector {
	if me < 0 || me >= n {
		panic("clock: process index out of range")
	}
	return &StrobeVector{me: me, v: NewVector(n)}
}

// Me returns the owning process index.
func (s *StrobeVector) Me() int { return s.me }

// Snapshot returns a copy of the current vector.
func (s *StrobeVector) Snapshot() Vector { return s.v.Clone() }

// Strobe applies SVC1 on a relevant (sensed) event: tick the local
// component and return the vector that the caller must system-wide
// broadcast as a control message, in a fresh array (see StrobeInto).
func (s *StrobeVector) Strobe() Vector { return s.StrobeInto(nil) }

// StrobeInto is Strobe writing the stamp into dst's backing array, the
// dense twin of SparseStrobeVector.StrobeInto: when dst has room for n
// components the stamp is dst resliced and costs no allocation; otherwise
// it is a fresh copy, as Strobe's is. It is the form for a sender that
// recycles the stamp of a dead strobe.
func (s *StrobeVector) StrobeInto(dst Vector) Vector {
	s.v[s.me]++
	if cap(dst) < len(s.v) {
		return s.v.Clone()
	}
	dst = dst[:len(s.v)]
	copy(dst, s.v)
	return dst
}

// OnStrobe applies SVC2 on receipt of strobe t: componentwise max, no
// local tick.
func (s *StrobeVector) OnStrobe(t Vector) {
	s.v.MergeFrom(t)
}
