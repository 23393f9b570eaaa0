package core

import (
	"sort"

	"pervasive/internal/intervals"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// ConjunctiveChecker detects Possibly(φ) or Definitely(φ) for a
// conjunctive predicate φ = ∧ᵢ φᵢ using the interval-queue algorithm
// family of Garg–Waldecker [14] and Cooper–Marzullo [10], applied to
// pervasive context detection as in Huang et al. [17]. Each sensor tracks
// the intervals during which its local conjunct φᵢ holds (delimited by
// strobe-vector stamps) and reports them; the checker searches for a set
// of intervals, one per process, that pairwise satisfy the modality's
// overlap relation.
//
// Unlike the literature's detect-once algorithms that "hang" after the
// first match (the limitation Section 3.3 calls out), this checker keeps
// advancing its queues and reports every occurrence.
type ConjunctiveChecker struct {
	n        int
	modality predicate.Modality

	queues [][]IntervalMsg
	next   []int // next expected Index per proc (for de-dup and ordering)
	occ    []Occurrence
	// Once restricts the checker to detect-once-and-hang semantics, as a
	// baseline for experiment E10.
	Once bool
	done bool

	// Notify, if set, is invoked on each match — the actuation hook. It
	// runs before the queues advance, so their heads are the matched set.
	Notify func(o Occurrence)

	// Resolved obs instruments; nil (no-ops) until SetObs.
	obsDetections *obs.Counter
	obsIntervals  *obs.Counter
	obsQueue      *obs.Gauge
}

// SetObs attaches runtime metrics: matched occurrences, enqueued
// interval reports, and total queue occupancy across processes (with
// watermark). SetObs(nil) detaches.
func (c *ConjunctiveChecker) SetObs(r *obs.Registry) {
	c.obsDetections = r.Counter("checker.detections")
	c.obsIntervals = r.Counter("checker.intervals_enqueued")
	c.obsQueue = r.Gauge("checker.queue_depth")
}

// queueDepth is the total interval count buffered across all queues.
func (c *ConjunctiveChecker) queueDepth() int64 {
	var d int64
	for _, q := range c.queues {
		d += int64(len(q))
	}
	return d
}

// NewConjunctiveChecker creates a checker over n processes for the given
// modality (Possibly or Definitely).
func NewConjunctiveChecker(n int, m predicate.Modality) *ConjunctiveChecker {
	if m == predicate.Instantaneously {
		panic("core: conjunctive checker detects Possibly/Definitely, not Instantaneously")
	}
	return &ConjunctiveChecker{
		n: n, modality: m,
		queues: make([][]IntervalMsg, n),
		next:   make([]int, n),
	}
}

// Register installs the checker on transport node idx.
func (c *ConjunctiveChecker) Register(net Receiver, idx int) {
	net.Register(idx, func(m network.Message, now sim.Time) {
		if iv, ok := m.Payload.(*IntervalMsg); ok {
			c.OnInterval(*iv, now)
		}
	})
}

// OnInterval enqueues one reported interval and attempts matching.
// Intervals that arrive out of order are inserted in Index position;
// intervals already consumed (late after a loss) are dropped. The queue
// keeps its own copy of a queued interval's stamps: the delivered ones
// belong to the payload, which a handler may not keep.
func (c *ConjunctiveChecker) OnInterval(m IntervalMsg, _ sim.Time) {
	if c.done || m.Proc < 0 || m.Proc >= c.n || m.Index < c.next[m.Proc] {
		return
	}
	q := c.queues[m.Proc]
	pos := sort.Search(len(q), func(i int) bool { return q[i].Index >= m.Index })
	if pos < len(q) && q[pos].Index == m.Index {
		return // duplicate
	}
	m.Open, m.Close = m.Open.Clone(), m.Close.Clone()
	q = append(q, IntervalMsg{})
	copy(q[pos+1:], q[pos:])
	q[pos] = m
	c.queues[m.Proc] = q
	c.obsIntervals.Inc()
	if c.obsQueue != nil { // skip the O(n) depth walk when uninstrumented
		c.obsQueue.Set(c.queueDepth())
		defer func() { c.obsQueue.Set(c.queueDepth()) }()
	}
	c.match()
}

// po converts a reported interval to its partial-order form.
func po(m IntervalMsg) intervals.POInterval {
	return intervals.POInterval{Start: m.Open, End: m.Close}
}

// match advances the queues until some queue is empty, reporting every
// matched set along the way.
func (c *ConjunctiveChecker) match() {
	for !c.done {
		heads := make([]IntervalMsg, c.n)
		for i := 0; i < c.n; i++ {
			if len(c.queues[i]) == 0 {
				return // need more intervals
			}
			heads[i] = c.queues[i][0]
		}
		popped := false
		if c.modality == predicate.Possibly {
			// Classic pruning: an interval wholly preceding another can
			// never pair with it or its successors.
			for i := 0; i < c.n && !popped; i++ {
				for j := 0; j < c.n && !popped; j++ {
					if i != j && intervals.Precedes(po(heads[i]), po(heads[j])) {
						c.pop(i)
						popped = true
					}
				}
			}
		} else {
			// Definitely: x pairs with y only if x.Open → y.Close. If
			// that fails, y's interval closes too early relative to x and
			// can never satisfy it; advance y.
			for i := 0; i < c.n && !popped; i++ {
				for j := 0; j < c.n && !popped; j++ {
					if i != j && !po(heads[i]).Start.HappensBefore(po(heads[j]).End) {
						c.pop(j)
						popped = true
					}
				}
			}
		}
		if popped {
			continue
		}
		// All heads pairwise satisfy the modality: an occurrence.
		c.report(heads)
		if c.Once {
			c.done = true
			return
		}
		// Advance past the earliest-closing interval to find the next
		// distinct occurrence.
		c.pop(earliestClose(heads))
	}
}

func (c *ConjunctiveChecker) pop(i int) {
	c.next[i] = c.queues[i][0].Index + 1
	c.queues[i] = c.queues[i][1:]
}

func earliestClose(heads []IntervalMsg) int {
	best := 0
	for i := 1; i < len(heads); i++ {
		if heads[i].CloseAt < heads[best].CloseAt {
			best = i
		}
	}
	return best
}

// report records an occurrence with true-time extent [max open, min close]
// — meaningful for Definitely (the intervals genuinely all overlap in real
// time under correct stamps); for Possibly the extent can be empty, in
// which case a zero-length occurrence at the latest open time is recorded
// and flagged borderline (it possibly-but-not-definitely happened).
func (c *ConjunctiveChecker) report(heads []IntervalMsg) {
	c.obsDetections.Inc()
	start := heads[0].OpenAt
	end := heads[0].CloseAt
	for _, h := range heads[1:] {
		if h.OpenAt > start {
			start = h.OpenAt
		}
		if h.CloseAt < end {
			end = h.CloseAt
		}
	}
	borderline := false
	if c.modality == predicate.Possibly {
		definitely := true
		for i := 0; i < len(heads) && definitely; i++ {
			for j := i + 1; j < len(heads) && definitely; j++ {
				if !intervals.DefinitelyOverlap(po(heads[i]), po(heads[j])) {
					definitely = false
				}
			}
		}
		borderline = !definitely
	}
	if end < start {
		end = start
	}
	o := Occurrence{Start: start, End: end, Borderline: borderline}
	c.occ = append(c.occ, o)
	if c.Notify != nil {
		c.Notify(o)
	}
}

// Occurrences returns the matched occurrences so far.
func (c *ConjunctiveChecker) Occurrences() []Occurrence { return c.occ }

// Finish is a no-op: every occurrence is reported closed, by matching
// complete intervals, so there is nothing to close at the horizon.
func (c *ConjunctiveChecker) Finish(sim.Time) {}

// Markers returns nil: ambiguity is carried per occurrence (Borderline),
// not as view-time markers.
func (c *ConjunctiveChecker) Markers() []sim.Time { return nil }
