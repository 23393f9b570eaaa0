package checker

import (
	"pervasive/internal/clock"
	"pervasive/internal/sim"
)

// Report is one sensor strobe report as seen by the checker tree — the
// payload of core.StrobeMsg without the transport envelope, so the tree
// package stays independent of the engine/transport layers.
type Report struct {
	Proc int
	Seq  int // per-process sense event counter (1-based)
	// Epoch is bumped each time the sender recovers from a crash.
	Epoch int
	Var   string
	Value float64
	// Vec is the full strobe vector stamp (vector protocol).
	Vec clock.Vector
	// Scalar is the strobe scalar stamp (scalar protocol).
	Scalar uint64
	// Sparse is the differential strobe payload: only the components
	// changed since the sender's previous broadcast.
	Sparse clock.SparseStamp
}

// OwnClock extracts the sender's own clock component — the value the
// emitting SVC1/SSC1 tick stamped on this report, and the `val` of the
// batched (proc, val, sent) sync triple.
func (m Report) OwnClock() uint64 {
	switch {
	case m.Vec != nil:
		if m.Proc >= 0 && m.Proc < len(m.Vec) {
			return m.Vec[m.Proc]
		}
	case m.Sparse != nil:
		for _, e := range m.Sparse {
			if e.Proc == m.Proc {
				return e.Val
			}
		}
	default:
		return m.Scalar
	}
	return 0
}

// Occurrence is one detected period during which a checker's view
// satisfied the predicate. Start/End are checker-view times (for strobe
// checkers: engine time of the flips; for the physical checker: reported
// physical timestamps). An open occurrence at the end of a run is closed
// at the horizon. core.Occurrence is this type (checker sits below core in
// the import graph).
type Occurrence struct {
	Start, End sim.Time
	// Borderline marks an occurrence whose opening flip was
	// race-ambiguous: the checker could not order the flipping event
	// against a concurrent event that the flip depends on (Section 5's
	// borderline bin). Only vector-strobe checkers can set it.
	Borderline bool
}
