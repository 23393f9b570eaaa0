package core

import (
	"pervasive/internal/clock"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// StrobeChecker is the flat reference implementation of the distinguished
// root process P0 of the strobe-clock detection algorithms: it consumes
// the system-wide strobe broadcasts, maintains the latest sensed value per
// process, and detects *each occurrence* of the global predicate becoming
// true in its (strobe-order) view of the world plane. Production detection
// runs on checker.Tree at every fan-out; this one-process form is what the
// differential tests hold the tree to, and what cmd/bench's flat-report
// drill times.
//
// With vector strobes the checker is race-aware: when the event that flips
// the predicate is concurrent (in the strobe partial order) with another
// process's latest event, and the predicate's truth depends on their
// unknowable relative order, the flip is classified into the borderline
// bin rather than reported as definite (Section 5). With scalar strobes
// no concurrency information exists, so every flip is reported as definite
// — the source of the scalar protocol's false positives (Section 3.3).
type StrobeChecker struct {
	n         int
	pred      predicate.Cond
	raceAware bool

	view      *predicate.View
	lastSeq   []int
	lastEpoch []int // crash/recovery epoch per proc (see StrobeMsg.Epoch)
	// stamps (a copy of the latest applied vector stamp per proc, empty =
	// none) and lastChange are read only by detectRace, so a race-blind
	// checker leaves both nil. A stamp is copied into its proc's array, as
	// the tree's keepVec does: the delivered one belongs to a body the
	// transport may reuse once the handler returns.
	stamps     []clock.Vector
	lastChange []change
	// recon reconstructs each sender's full vector from differential
	// strobes (DiffVectorStrobe protocol); nil entries until first diff.
	recon []clock.Vector

	cur      bool
	occ      []Occurrence
	markers  []sim.Time
	finished bool

	// NaiveRace switches race detection to the naive criterion — flag
	// whenever the applied event is concurrent with any other process's
	// latest event, regardless of whether the predicate's history depends
	// on their order (the A2 ablation's criterion).
	NaiveRace bool

	// Applied counts strobes applied (non-stale).
	Applied int64
	// Stale counts strobes discarded as stale/duplicate/out-of-order.
	Stale int64
}

type change struct {
	varName string
	prev    float64
	valid   bool
}

// NewVectorChecker creates the race-aware checker for the strobe-vector
// protocol over n sensor processes.
//
//lint:allow testonly(builds the flat oracle that the core and live differential tests hold checker.Tree to)
func NewVectorChecker(n int, pred predicate.Cond) *StrobeChecker {
	return newStrobeChecker(n, pred, true)
}

// NewScalarChecker creates the checker for the strobe-scalar protocol; it
// cannot detect races.
func NewScalarChecker(n int, pred predicate.Cond) *StrobeChecker {
	return newStrobeChecker(n, pred, false)
}

func newStrobeChecker(n int, pred predicate.Cond, raceAware bool) *StrobeChecker {
	c := &StrobeChecker{
		n: n, pred: pred, raceAware: raceAware,
		view:      predicate.NewView(n),
		lastSeq:   make([]int, n),
		lastEpoch: make([]int, n),
	}
	if raceAware {
		c.stamps = make([]clock.Vector, n)
		c.lastChange = make([]change, n)
	}
	return c
}

// Register installs the checker on transport node idx.
//
//lint:allow testonly(installs the flat oracle on a transport for the differential tests)
func (c *StrobeChecker) Register(net Receiver, idx int) { onStrobes(net, idx, c.OnStrobe) }

// OnStrobe applies one received strobe to the view and updates detection
// state. Strobes from a process are applied in increasing Seq order;
// older ones that arrive late (reordered or after a loss) are discarded,
// which keeps the effect of a loss local in time (Section 4.2.2).
func (c *StrobeChecker) OnStrobe(m StrobeMsg, now sim.Time) {
	if c.finished {
		return
	}
	if m.Proc < 0 || m.Proc >= c.n {
		c.Stale++
		return
	}
	// The epoch discipline of checker.Tree.OnReport: an older epoch is a
	// pre-crash straggler, a newer one resets the process's order state.
	switch {
	case m.Epoch < c.lastEpoch[m.Proc]:
		c.Stale++
		return
	case m.Epoch > c.lastEpoch[m.Proc]:
		c.lastEpoch[m.Proc] = m.Epoch
		c.lastSeq[m.Proc] = 0
		if c.raceAware {
			c.stamps[m.Proc] = c.stamps[m.Proc][:0]
			c.lastChange[m.Proc] = change{}
		}
		if c.recon != nil {
			c.recon[m.Proc].Reset()
		}
	}
	if m.Seq <= c.lastSeq[m.Proc] {
		c.Stale++
		return
	}
	c.lastSeq[m.Proc] = m.Seq
	c.Applied++

	// Differential strobes: rebuild the sender's full vector, race-aware
	// only, as checker.Tree.OnReport does.
	if m.Vec == nil && m.Sparse != nil && c.raceAware {
		if c.recon == nil {
			c.recon = make([]clock.Vector, c.n)
		}
		if c.recon[m.Proc] == nil {
			c.recon[m.Proc] = clock.NewVector(c.n)
		}
		c.recon[m.Proc].MergeSparse(m.Sparse)
		m.Vec = c.recon[m.Proc] // copied into stamps below
	}

	prev := c.view.Set(m.Proc, m.Var, m.Value)
	settled := c.phi()

	race := false
	if c.raceAware {
		if m.Vec != nil {
			race = c.detectRace(m, prev)
			c.stamps[m.Proc] = append(c.stamps[m.Proc][:0], m.Vec...)
		}
		c.lastChange[m.Proc] = change{varName: m.Var, prev: prev, valid: true}
	}

	if race {
		c.markers = append(c.markers, now)
	}
	if settled != c.cur {
		if settled {
			c.occ = append(c.occ, Occurrence{Start: now, Borderline: race})
		} else if len(c.occ) > 0 {
			c.occ[len(c.occ)-1].End = now
			if race {
				c.occ[len(c.occ)-1].Borderline = true
			}
		}
		c.cur = settled
	}
}

// detectRace is the four-state race probe (see checker.Tree's detectRace
// for the criterion), run against the checker's view.
func (c *StrobeChecker) detectRace(m StrobeMsg, prevI float64) bool {
	for j := 0; j < c.n; j++ {
		if j == m.Proc || len(c.stamps[j]) == 0 || !c.lastChange[j].valid {
			continue
		}
		if !m.Vec.ConcurrentWith(c.stamps[j]) {
			continue
		}
		if c.NaiveRace {
			return true
		}
		ch := c.lastChange[j]

		phi11 := c.phi()
		curJ := c.view.Set(j, ch.varName, ch.prev) // s10: only e
		phi10 := c.phi()
		curI := c.view.Set(m.Proc, m.Var, prevI) // s00: neither
		phi00 := c.phi()
		c.view.Set(j, ch.varName, curJ) // s01: only e'
		phi01 := c.phi()
		c.view.Set(m.Proc, m.Var, curI) // restore s11

		if phi00 == phi11 && phi10 != phi01 {
			return true
		}
	}
	return false
}

// phi evaluates the predicate against the checker's current view.
func (c *StrobeChecker) phi() bool {
	return c.pred.Holds(c.view)
}

// Finish closes any open occurrence at the horizon. Further strobes are
// ignored.
func (c *StrobeChecker) Finish(horizon sim.Time) {
	if c.finished {
		return
	}
	c.finished = true
	c.occ = closeOpen(c.occ, c.cur, horizon)
}

// Occurrences returns the detected occurrences (call Finish first).
func (c *StrobeChecker) Occurrences() []Occurrence { return c.occ }

// Markers returns the view times at which race ambiguity was observed.
func (c *StrobeChecker) Markers() []sim.Time { return c.markers }

// View returns the checker's current value of (proc, var) — the evolving
// "map of the physical world" of Section 1.
//
//lint:allow testonly(the flat oracle's view, which FuzzCheckerView holds the tree's to)
func (c *StrobeChecker) View(proc int, name string) float64 {
	return c.view.Get(proc, name)
}
