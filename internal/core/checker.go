package core

import (
	"pervasive/internal/clock"
	"pervasive/internal/flight"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// StrobeChecker is the distinguished root process P0 of the strobe-clock
// detection algorithms: it consumes the system-wide strobe broadcasts,
// maintains the latest sensed value per process, and detects *each
// occurrence* of the global predicate becoming true in its (strobe-order)
// view of the world plane.
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

	view       *checkerState
	stamps     []clock.Vector // latest applied vector stamp per proc (nil = none)
	lastSeq    []int
	lastEpoch  []int // crash/recovery epoch per proc (see StrobeMsg.Epoch)
	lastChange []change
	// recon reconstructs each sender's full vector from differential
	// strobes (DiffVectorStrobe protocol); nil entries until first diff.
	recon []clock.Vector
	// stampBuf holds one reusable vector per proc for the differential
	// path: the reconstruction is copied into the scratch buffer instead
	// of cloned per strobe (the previous stamp of that proc is being
	// replaced anyway, so no live reader aliases it).
	stampBuf []clock.Vector

	cur      bool
	occ      []Occurrence
	markers  []sim.Time
	finished bool

	// Notify, if set, is invoked when the predicate becomes true in the
	// checker's view — the hook through which detection triggers
	// actuation (the sense→detect→actuate loop of Section 2.2). The
	// occurrence's End is not yet known at call time.
	Notify func(o Occurrence)

	// NaiveRace switches race detection to the naive criterion — flag
	// whenever the applied event is concurrent with any other process's
	// latest event, regardless of whether the predicate's history depends
	// on their order. Used by the A2 ablation; the default four-state
	// criterion flags only order-sensitive races.
	NaiveRace bool

	// Applied counts strobes applied (non-stale).
	Applied int64
	// Stale counts strobes discarded as stale/duplicate/out-of-order.
	Stale int64

	// Resolved obs instruments; nil (no-ops) until SetObs.
	obsEvals      *obs.Counter
	obsDetections *obs.Counter
	obsApplied    *obs.Counter
	obsStale      *obs.Counter
	obsRaces      *obs.Counter

	// Flight recorder wiring; fl nil (no-op) until SetFlight. flSelf is
	// the checker's own process index on the transport.
	fl     *flight.Recorder
	flSelf int32
}

// SetObs attaches runtime metrics: predicate evaluations (including the
// four-state probes of race detection), detections, applied/stale
// strobes and race markers. SetObs(nil) detaches.
func (c *StrobeChecker) SetObs(r *obs.Registry) {
	c.obsEvals = r.Counter("checker.pred_evals")
	c.obsDetections = r.Counter("checker.detections")
	c.obsApplied = r.Counter("checker.strobes_applied")
	c.obsStale = r.Counter("checker.strobes_stale")
	c.obsRaces = r.Counter("checker.race_markers")
}

// SetFlight attaches a flight recorder: applied/stale strobes and the
// predicate's detect/clear edges are recorded at the checker's ring
// (self is its transport index), and every detection rising edge
// triggers a full dump — the recent causal context that explains the
// detection. SetFlight(nil, 0) detaches.
func (c *StrobeChecker) SetFlight(r *flight.Recorder, self int) {
	c.fl = r
	c.flSelf = int32(self)
}

type change struct {
	varName string
	prev    float64
	valid   bool
}

// NewVectorChecker creates the race-aware checker for the strobe-vector
// protocol over n sensor processes.
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
		view:       &checkerState{n: n},
		stamps:     make([]clock.Vector, n),
		lastSeq:    make([]int, n),
		lastEpoch:  make([]int, n),
		lastChange: make([]change, n),
	}
	return c
}

// onStrobes installs fn on transport node idx as the consumer of every
// strobe delivered there; other payloads are ignored.
func onStrobes(net Receiver, idx int, fn func(m StrobeMsg, now sim.Time)) {
	net.Register(idx, func(m network.Message, now sim.Time) {
		if strobe, ok := m.Payload.(StrobeMsg); ok {
			fn(strobe, now)
		}
	})
}

// Register installs the checker on transport node idx.
func (c *StrobeChecker) Register(net Receiver, idx int) { onStrobes(net, idx, c.OnStrobe) }

// checkerState is a flat checker's view of the sensed world: one column of
// n values per variable name, created by the first write of that name. A
// predicate names one to three variables, so finding a column is a scan of
// a list that short, and the view of n processes is a few slices instead
// of n maps. It implements predicate.State by pointer (no boxing per
// Holds) and predicate.Columnar.
type checkerState struct {
	n    int
	cols []stateColumn
}

type stateColumn struct {
	name string
	vals []float64
}

// Column implements predicate.Columnar: nil for a name never written.
func (s *checkerState) Column(name string) []float64 {
	for i := range s.cols {
		if s.cols[i].name == name {
			return s.cols[i].vals
		}
	}
	return nil
}

// Get implements predicate.State: out-of-range processes and names never
// written read 0.
func (s *checkerState) Get(proc int, name string) float64 {
	if col := s.Column(name); col != nil && proc >= 0 && proc < s.n {
		return col[proc]
	}
	return 0
}

// NumProcs implements predicate.State.
func (s *checkerState) NumProcs() int { return s.n }

// set writes the value of name at proc (which must be in range) and
// returns the value it replaces.
func (s *checkerState) set(proc int, name string, v float64) (prev float64) {
	col := s.Column(name)
	if col == nil {
		col = make([]float64, s.n)
		s.cols = append(s.cols, stateColumn{name, col})
	}
	prev, col[proc] = col[proc], v
	return prev
}

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
		c.obsStale.Inc()
		return
	}
	// Epoch discipline: a recovered process restarts with Seq 1 under a
	// bumped epoch. Stamps from an older epoch are pre-crash stragglers —
	// discarding them (and resetting the per-process order state on the
	// bump) is what keeps the checker from merging pre-crash strobe state
	// into the rebooted process's fresh causal history.
	switch {
	case m.Epoch < c.lastEpoch[m.Proc]:
		c.Stale++
		c.obsStale.Inc()
		c.recordStale(m, now)
		return
	case m.Epoch > c.lastEpoch[m.Proc]:
		c.lastEpoch[m.Proc] = m.Epoch
		c.lastSeq[m.Proc] = 0
		c.stamps[m.Proc] = nil
		c.lastChange[m.Proc] = change{}
		if c.recon != nil {
			c.recon[m.Proc].Reset()
		}
	}
	if m.Seq <= c.lastSeq[m.Proc] {
		c.Stale++
		c.obsStale.Inc()
		c.recordStale(m, now)
		return
	}
	c.lastSeq[m.Proc] = m.Seq
	c.Applied++
	c.obsApplied.Inc()
	if c.fl != nil {
		epoch, seq, clk := m.FlightStamp()
		c.fl.Record(flight.Rec{
			Kind: flight.Apply, Proc: c.flSelf, Peer: int32(m.Proc),
			Epoch: int32(epoch), Seq: uint64(seq), At: now,
			Attr: c.fl.Intern(m.Var), PeerClock: clk, Value: m.Value,
		})
	}

	// Differential strobes: rebuild the sender's full vector by merging
	// its changed components into the per-sender reconstruction. After a
	// lost diff the reconstruction under-knows until the missing
	// components change again — which can only add false concurrency
	// (more borderline flags), never false order. The reconstructions
	// exist solely to feed race detection, so a race-blind checker skips
	// them entirely — that is what keeps checker memory O(n), not O(n²),
	// at scale.
	if m.Vec == nil && m.Sparse != nil && c.raceAware {
		if c.recon == nil {
			c.recon = make([]clock.Vector, c.n)
			c.stampBuf = make([]clock.Vector, c.n)
		}
		if c.recon[m.Proc] == nil {
			c.recon[m.Proc] = clock.NewVector(c.n)
			c.stampBuf[m.Proc] = clock.NewVector(c.n)
		}
		c.recon[m.Proc].MergeSparse(m.Sparse)
		// Copy into the per-proc scratch stamp rather than cloning: only
		// c.stamps[m.Proc] can alias the buffer, and it is replaced below.
		copy(c.stampBuf[m.Proc], c.recon[m.Proc])
		m.Vec = c.stampBuf[m.Proc]
	}

	prev := c.view.set(m.Proc, m.Var, m.Value)
	c.obsEvals.Inc()
	settled := c.pred.Holds(c.view)

	race := false
	if c.raceAware && m.Vec != nil {
		race = c.detectRace(m, prev)
	}

	c.lastChange[m.Proc] = change{varName: m.Var, prev: prev, valid: true}
	if m.Vec != nil {
		c.stamps[m.Proc] = m.Vec
	}

	if race {
		c.markers = append(c.markers, now)
		c.obsRaces.Inc()
	}
	if settled != c.cur {
		if settled {
			c.obsDetections.Inc()
			o := Occurrence{Start: now, Borderline: race}
			c.occ = append(c.occ, o)
			if c.Notify != nil {
				c.Notify(o)
			}
			if c.fl != nil {
				c.fl.Record(flight.Rec{
					Kind: flight.Detect, Proc: c.flSelf, Peer: flight.NoPeer,
					At: now, Value: 1,
				})
				// Dump every ring: the predicate is global, so the causal
				// context of a detection spans the whole fleet.
				c.fl.TriggerDump("detect", now)
			}
		} else if len(c.occ) > 0 {
			c.occ[len(c.occ)-1].End = now
			if race {
				c.occ[len(c.occ)-1].Borderline = true
			}
			if c.fl != nil {
				c.fl.Record(flight.Rec{
					Kind: flight.Clear, Proc: c.flSelf, Peer: flight.NoPeer, At: now,
				})
			}
		}
		c.cur = settled
	}
}

// recordStale stamps one discarded strobe at the checker's ring.
func (c *StrobeChecker) recordStale(m StrobeMsg, now sim.Time) {
	if c.fl == nil {
		return
	}
	epoch, seq, clk := m.FlightStamp()
	c.fl.Record(flight.Rec{
		Kind: flight.Stale, Proc: c.flSelf, Peer: int32(m.Proc),
		Epoch: int32(epoch), Seq: uint64(seq), At: now,
		Attr: c.fl.Intern(m.Var), PeerClock: clk, Value: m.Value,
	})
}

// detectRace reports whether the just-applied event e (from m.Proc, whose
// variable previously held prevI) races with another process's latest
// event e' in a way that makes the predicate's history ambiguous. The two
// events race when their stamps are concurrent — the strobe order cannot
// tell which happened first. Consider the four states over {e, e'}
// applied/not: s00, s10 (only e), s01 (only e'), s11 (both). The true
// history passed through s00 → (s10 or s01) → s11 in an unknowable order.
// The order matters exactly when the endpoints agree (φ(s00) == φ(s11))
// but the middles differ (φ(s10) ≠ φ(s01)): one order contains a
// transient φ-change that the other lacks, so whether φ held in between
// cannot be decided. When the endpoints differ, the net transition
// happens under either order (only its attribution shifts within the race
// window) and the observation is robust — e.g. two concurrent rises that
// jointly push a sum over its threshold are correctly left unflagged.
func (c *StrobeChecker) detectRace(m StrobeMsg, prevI float64) bool {
	for j := 0; j < c.n; j++ {
		if j == m.Proc || c.stamps[j] == nil || !c.lastChange[j].valid {
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
		curJ := c.view.set(j, ch.varName, ch.prev) // s10: only e
		phi10 := c.phi()
		curI := c.view.set(m.Proc, m.Var, prevI) // s00: neither
		phi00 := c.phi()
		c.view.set(j, ch.varName, curJ) // s01: only e'
		phi01 := c.phi()
		c.view.set(m.Proc, m.Var, curI) // restore s11

		if phi00 == phi11 && phi10 != phi01 {
			return true
		}
	}
	return false
}

// phi evaluates the predicate against the checker's current view.
func (c *StrobeChecker) phi() bool {
	c.obsEvals.Inc()
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
func (c *StrobeChecker) View(proc int, name string) float64 {
	return c.view.Get(proc, name)
}
