// Package faults is the deterministic fault-injection layer shared by
// both execution engines. A Plan is a scriptable schedule of process
// crashes and recoveries, network partitions, and per-link duplicate /
// reorder windows; an Injector answers the point queries the transports
// need on their hot paths ("is process i down at t?", "is the link i—j
// cut at t?") and counts what the plan actually did to the traffic.
//
// Semantics (the paper's §4.2.2 robustness model, extended with churn):
//
//   - A crashed process neither sends, relays, nor delivers. Sense
//     events occurring while it is down are simply not reported — the
//     world plane keeps evolving, the network plane goes silent.
//   - A recovered process rejoins with a fresh strobe clock, a fresh
//     per-process sequence, and a bumped epoch. Checkers key their
//     per-process ordering state on the epoch so pre-crash strobe state
//     is never merged into the new incarnation's view.
//   - A partition splits the listed processes into groups for a window;
//     messages between different groups are dropped. Processes not
//     listed in any group are unaffected (reachable by everyone), so a
//     plan that does not name the checker leaves it connected.
//   - Duplicate windows re-deliver direct messages with an
//     independently sampled delay; reorder windows add extra uniform
//     jitter to sampled delays. Both stress the checker's Seq-based
//     staleness discipline.
//
// The plan is static data: Injector queries are pure functions of
// (plan, time), so both the single-threaded DES and the concurrent live
// engine can consult the same injector, and a DES run with a plan is
// exactly as reproducible as one without. When no plan is installed the
// transports skip the layer behind one nil check, and an empty plan
// compiles to the same nil injector, so the two cannot differ in cost.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"pervasive/internal/sim"
)

// Interval is a half-open [From, To) window of virtual time; To == Never
// means "until the end of the run".
type Interval struct {
	From, To sim.Time
}

// Contains reports whether t falls inside the window.
func (iv Interval) Contains(t sim.Time) bool { return t >= iv.From && t < iv.To }

// EventKind discriminates plan events.
type EventKind int

// Plan event kinds.
const (
	// Crash takes the process down at At.
	Crash EventKind = iota
	// Recover brings the process back up at At with a fresh epoch.
	Recover
)

// Event is one crash or recovery in a plan.
type Event struct {
	Kind EventKind
	Proc int
	At   sim.Time
}

// Partition splits Groups of processes from each other during [From, To).
// Processes not listed in any group are unaffected.
type Partition struct {
	Groups   [][]int
	From, To sim.Time
}

// Window is a timed link-behaviour window: a duplicate window re-delivers
// with probability P, a reorder window adds uniform jitter up to Jitter.
type Window struct {
	From, To sim.Time
	P        float64      // duplicate probability (dup windows)
	Jitter   sim.Duration // max extra delay (reorder windows)
}

// Plan is a deterministic fault schedule. Build one with the fluent
// methods or Parse; install it via core.HarnessConfig.Faults (DES) or
// live.Config.Faults (live engine).
type Plan struct {
	Events     []Event
	Partitions []Partition
	Dups       []Window
	Reorders   []Window
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Crash schedules process proc to crash at t.
func (p *Plan) Crash(proc int, t sim.Time) *Plan {
	p.Events = append(p.Events, Event{Kind: Crash, Proc: proc, At: t})
	return p
}

// Recover schedules process proc to recover at t.
func (p *Plan) Recover(proc int, t sim.Time) *Plan {
	p.Events = append(p.Events, Event{Kind: Recover, Proc: proc, At: t})
	return p
}

// Partition splits groups from each other during [from, to).
func (p *Plan) Partition(groups [][]int, from, to sim.Time) *Plan {
	p.Partitions = append(p.Partitions, Partition{Groups: groups, From: from, To: to})
	return p
}

// Duplicate re-delivers direct messages sent in [from, to) with
// probability prob.
func (p *Plan) Duplicate(from, to sim.Time, prob float64) *Plan {
	p.Dups = append(p.Dups, Window{From: from, To: to, P: prob})
	return p
}

// Reorder adds up to jitter of extra uniform delay to messages sent in
// [from, to).
func (p *Plan) Reorder(from, to sim.Time, jitter sim.Duration) *Plan {
	p.Reorders = append(p.Reorders, Window{From: from, To: to, Jitter: jitter})
	return p
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool {
	return p == nil || len(p.Events) == 0 && len(p.Partitions) == 0 &&
		len(p.Dups) == 0 && len(p.Reorders) == 0
}

// MaxProc returns the highest process index the plan names (-1 when none).
func (p *Plan) MaxProc() int {
	max := -1
	if p == nil {
		return max
	}
	for _, e := range p.Events {
		if e.Proc > max {
			max = e.Proc
		}
	}
	for _, pt := range p.Partitions {
		for _, g := range pt.Groups {
			for _, i := range g {
				if i > max {
					max = i
				}
			}
		}
	}
	return max
}

// String renders the plan in the Parse grammar.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	for _, e := range p.Events {
		verb := "crash"
		if e.Kind == Recover {
			verb = "recover"
		}
		parts = append(parts, fmt.Sprintf("%s(%d,%s)", verb, e.Proc, fmtTime(e.At)))
	}
	for _, pt := range p.Partitions {
		gs := make([]string, len(pt.Groups))
		for i, g := range pt.Groups {
			ms := make([]string, len(g))
			for j, m := range g {
				ms[j] = strconv.Itoa(m)
			}
			gs[i] = strings.Join(ms, ".")
		}
		parts = append(parts, fmt.Sprintf("partition(%s,%s,%s)",
			strings.Join(gs, "|"), fmtTime(pt.From), fmtTime(pt.To)))
	}
	for _, w := range p.Dups {
		parts = append(parts, fmt.Sprintf("dup(%s,%s,%g)", fmtTime(w.From), fmtTime(w.To), w.P))
	}
	for _, w := range p.Reorders {
		parts = append(parts, fmt.Sprintf("reorder(%s,%s,%s)",
			fmtTime(w.From), fmtTime(w.To), fmtTime(sim.Time(w.Jitter))))
	}
	return strings.Join(parts, ";")
}

func fmtTime(t sim.Time) string {
	return (time.Duration(t) * time.Microsecond).String()
}

// Parse reads a plan from its textual form: semicolon-separated clauses
//
//	crash(proc,t)            e.g. crash(2,10s)
//	recover(proc,t)          e.g. recover(2,30s)
//	partition(g|g,t0,t1)     groups split by '|', members by '.',
//	                         e.g. partition(0.1|2.3,10s,20s)
//	dup(t0,t1,p)             e.g. dup(5s,15s,0.3)
//	reorder(t0,t1,jitter)    e.g. reorder(5s,15s,50ms)
//
// Times use Go duration syntax ("10s", "250ms") measured from the start
// of the run. Whitespace around clauses is ignored.
func Parse(s string) (*Plan, error) {
	p := NewPlan()
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		open := strings.IndexByte(clause, '(')
		if open < 0 || !strings.HasSuffix(clause, ")") {
			return nil, fmt.Errorf("faults: malformed clause %q", clause)
		}
		verb := strings.TrimSpace(clause[:open])
		args := strings.Split(clause[open+1:len(clause)-1], ",")
		for i := range args {
			args[i] = strings.TrimSpace(args[i])
		}
		switch verb {
		case "crash", "recover":
			if len(args) != 2 {
				return nil, fmt.Errorf("faults: %s wants (proc,t): %q", verb, clause)
			}
			proc, err := strconv.Atoi(args[0])
			if err != nil {
				return nil, fmt.Errorf("faults: bad process in %q: %v", clause, err)
			}
			t, err := parseTime(args[1])
			if err != nil {
				return nil, fmt.Errorf("faults: bad time in %q: %v", clause, err)
			}
			if verb == "crash" {
				p.Crash(proc, t)
			} else {
				p.Recover(proc, t)
			}
		case "partition":
			if len(args) != 3 {
				return nil, fmt.Errorf("faults: partition wants (groups,t0,t1): %q", clause)
			}
			var groups [][]int
			for _, gs := range strings.Split(args[0], "|") {
				var g []int
				for _, ms := range strings.Split(gs, ".") {
					ms = strings.TrimSpace(ms)
					if ms == "" {
						continue
					}
					m, err := strconv.Atoi(ms)
					if err != nil {
						return nil, fmt.Errorf("faults: bad member in %q: %v", clause, err)
					}
					g = append(g, m)
				}
				if len(g) > 0 {
					groups = append(groups, g)
				}
			}
			if len(groups) < 2 {
				return nil, fmt.Errorf("faults: partition needs at least two groups: %q", clause)
			}
			from, err := parseTime(args[1])
			if err != nil {
				return nil, fmt.Errorf("faults: bad time in %q: %v", clause, err)
			}
			to, err := parseTime(args[2])
			if err != nil {
				return nil, fmt.Errorf("faults: bad time in %q: %v", clause, err)
			}
			p.Partition(groups, from, to)
		case "dup":
			if len(args) != 3 {
				return nil, fmt.Errorf("faults: dup wants (t0,t1,p): %q", clause)
			}
			from, err1 := parseTime(args[0])
			to, err2 := parseTime(args[1])
			prob, err3 := strconv.ParseFloat(args[2], 64)
			if err1 != nil || err2 != nil || err3 != nil || prob < 0 || prob > 1 {
				return nil, fmt.Errorf("faults: bad dup clause %q", clause)
			}
			p.Duplicate(from, to, prob)
		case "reorder":
			if len(args) != 3 {
				return nil, fmt.Errorf("faults: reorder wants (t0,t1,jitter): %q", clause)
			}
			from, err1 := parseTime(args[0])
			to, err2 := parseTime(args[1])
			jit, err3 := parseTime(args[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("faults: bad reorder clause %q", clause)
			}
			p.Reorder(from, to, sim.Duration(jit))
		default:
			return nil, fmt.Errorf("faults: unknown clause %q", verb)
		}
	}
	return p, nil
}

func parseTime(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative time %v", d)
	}
	return sim.Time(d / time.Microsecond), nil
}

// Downtimes returns, per process index the plan names, the normalized
// sorted down-windows implied by the event list: a crash opens a window,
// the next recovery of the same process closes it; crashes while already
// down and recoveries while up are ignored; an unmatched crash leaves the
// process down forever (window ends at sim.Never). The slice is indexed
// by process, length MaxProc()+1.
func (p *Plan) Downtimes() [][]Interval {
	n := p.MaxProc() + 1
	if n == 0 {
		return nil
	}
	events := append([]Event(nil), p.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	down := make([][]Interval, n)
	open := make([]sim.Time, n)
	isDown := make([]bool, n)
	for _, e := range events {
		if e.Proc < 0 || e.Proc >= n {
			continue
		}
		switch e.Kind {
		case Crash:
			if !isDown[e.Proc] {
				isDown[e.Proc] = true
				open[e.Proc] = e.At
			}
		case Recover:
			if isDown[e.Proc] {
				isDown[e.Proc] = false
				down[e.Proc] = append(down[e.Proc], Interval{From: open[e.Proc], To: e.At})
			}
		}
	}
	for i := range isDown {
		if isDown[i] {
			down[i] = append(down[i], Interval{From: open[i], To: sim.Never})
		}
	}
	return down
}

// Transitions returns the normalized crash/recover events implied by
// Downtimes, in time order — the schedule the engines hook process
// lifecycle callbacks onto (redundant crashes/recoveries are gone).
func (p *Plan) Transitions() []Event {
	var out []Event
	for proc, ivs := range p.Downtimes() {
		for _, iv := range ivs {
			out = append(out, Event{Kind: Crash, Proc: proc, At: iv.From})
			if iv.To != sim.Never {
				out = append(out, Event{Kind: Recover, Proc: proc, At: iv.To})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}
