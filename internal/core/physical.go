package core

import (
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// PhysicalChecker detects each occurrence of a global predicate using
// ε-synchronized physical timestamps, in the style of Mayo–Kearns [28]
// and Stoller [34]: sensors report timestamped events; the checker buffers
// reports briefly to absorb network reordering, then replays them in
// timestamp order and evaluates the predicate after each event.
//
// Its accuracy limit is exactly the paper's: when two events at different
// locations race within the clock skew, their timestamp order may differ
// from their true order, producing false negatives (and false positives)
// for predicate-true periods shorter than the skew bound 2ε.
type PhysicalChecker struct {
	n    int
	pred predicate.Cond
	// Slack is how long a report is buffered before replay; it must cover
	// the maximum network delay plus ε so replay order equals timestamp
	// order. Larger slack costs detection latency, not accuracy.
	Slack sim.Duration

	eng     *sim.Engine
	pending reportHeap

	view     *predicate.View
	drainFn  sim.Handler // c.drain, bound once
	lastTS   sim.Time
	cur      bool
	occ      []Occurrence
	finished bool
	// Reordered counts reports that arrived with a timestamp below the
	// replay watermark and were applied out of order.
	Reordered int64

	// Resolved obs instruments; nil (no-ops) until SetObs.
	obsEvals      *obs.Counter
	obsDetections *obs.Counter
	obsApplied    *obs.Counter
	obsQueue      *obs.Gauge
}

// SetObs attaches runtime metrics: predicate evaluations, detections,
// replayed reports, and the reorder buffer's occupancy (with watermark).
// SetObs(nil) detaches.
func (c *PhysicalChecker) SetObs(r *obs.Registry) {
	c.obsEvals = r.Counter("checker.pred_evals")
	c.obsDetections = r.Counter("checker.detections")
	c.obsApplied = r.Counter("checker.reports_applied")
	c.obsQueue = r.Gauge("checker.queue_depth")
}

// NewPhysicalChecker creates the checker; slack should be ≥ the delay
// bound Δ plus ε.
func NewPhysicalChecker(eng *sim.Engine, n int, pred predicate.Cond, slack sim.Duration) *PhysicalChecker {
	c := &PhysicalChecker{
		n: n, pred: pred, Slack: slack, eng: eng,
		view: predicate.NewView(n),
	}
	c.drainFn = c.drain
	return c
}

// Register installs the checker on transport node idx.
func (c *PhysicalChecker) Register(net Receiver, idx int) {
	net.Register(idx, func(m network.Message, now sim.Time) {
		if rep, ok := m.Payload.(*ReportMsg); ok {
			c.OnReport(*rep, now)
		}
	})
}

// OnReport buffers one report and schedules its replay after Slack.
func (c *PhysicalChecker) OnReport(m ReportMsg, now sim.Time) {
	if c.finished {
		return
	}
	c.pending.push(m)
	c.obsQueue.Set(int64(len(c.pending)))
	c.eng.After(c.Slack, c.drainFn)
}

// drain replays all buffered reports whose timestamp is at or below the
// watermark now - Slack … any report still in flight must (absent extreme
// delays) carry a later timestamp.
func (c *PhysicalChecker) drain(now sim.Time) {
	if c.finished {
		return
	}
	watermark := now - c.Slack
	for len(c.pending) > 0 && c.pending[0].TS <= watermark {
		c.apply(c.pending.pop())
	}
	c.obsQueue.Set(int64(len(c.pending)))
}

func (c *PhysicalChecker) apply(m ReportMsg) {
	if m.Proc < 0 || m.Proc >= c.n {
		return
	}
	if m.TS < c.lastTS {
		c.Reordered++
	} else {
		c.lastTS = m.TS
	}
	c.obsApplied.Inc()
	c.view.Set(m.Proc, m.Var, m.Value)
	c.obsEvals.Inc()
	settled := c.pred.Holds(c.view)
	if settled != c.cur {
		if settled {
			c.obsDetections.Inc()
			c.occ = append(c.occ, Occurrence{Start: m.TS})
		} else if len(c.occ) > 0 {
			c.occ[len(c.occ)-1].End = m.TS
		}
		c.cur = settled
	}
}

// Finish replays everything still buffered and closes an open occurrence
// at the horizon.
func (c *PhysicalChecker) Finish(horizon sim.Time) {
	if c.finished {
		return
	}
	for len(c.pending) > 0 {
		c.apply(c.pending.pop())
	}
	c.finished = true
	c.occ = closeOpen(c.occ, c.cur, horizon)
}

// Occurrences returns the detected occurrences (call Finish first).
func (c *PhysicalChecker) Occurrences() []Occurrence { return c.occ }

// Markers returns nil: physical timestamps are totally ordered, so the
// checker never observes a race.
func (c *PhysicalChecker) Markers() []sim.Time { return nil }

// reportHeap is a binary min-heap of reports by timestamp. push and pop
// are container/heap's up and down loops on the concrete type — no report
// is boxed going in or coming out — and sift exactly as Push and Pop do:
// equal timestamps are genuinely unordered at the clock's resolution, but
// the order they leave in is part of every pinned run.
type reportHeap []ReportMsg

func (h *reportHeap) push(m ReportMsg) {
	s := append(*h, m)
	*h = s
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].TS < s[i].TS) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *reportHeap) pop() ReportMsg {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].TS < s[j].TS {
			j = r
		}
		if !(s[j].TS < s[i].TS) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}
