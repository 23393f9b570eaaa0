package core

import (
	"sort"

	"pervasive/internal/checker"
	"pervasive/internal/intervals"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// MultiChecker evaluates several named predicates over one strobe stream —
// the substrate for the relative timing relations of Section 3.1.1.a.ii,
// where a specification constrains the occurrence streams of *two*
// predicates ("X before Y by more than 5 seconds"). Each named predicate
// gets its own checker tree; a single transport registration fans the
// strobes out.
type MultiChecker struct {
	checkers map[string]*checker.Tree
	order    []string
}

// NewMultiChecker builds one checker per named predicate, race-aware when
// vector is set.
func NewMultiChecker(n int, preds map[string]predicate.Cond, vector bool) *MultiChecker {
	m := &MultiChecker{checkers: make(map[string]*checker.Tree, len(preds))}
	for name := range preds {
		m.order = append(m.order, name)
	}
	sort.Strings(m.order)
	for _, name := range m.order {
		m.checkers[name] = checker.New(checker.Config{N: n, Pred: preds[name], RaceAware: vector})
	}
	return m
}

// Register installs the fan-out handler on transport node idx.
func (m *MultiChecker) Register(net Receiver, idx int) { onStrobes(net, idx, m.OnStrobe) }

// OnStrobe fans one strobe out to every named checker.
func (m *MultiChecker) OnStrobe(msg StrobeMsg, now sim.Time) {
	for _, name := range m.order {
		m.checkers[name].OnReport(checker.Report(msg), now)
	}
}

// Finish closes all checkers at the horizon.
func (m *MultiChecker) Finish(horizon sim.Time) {
	for _, name := range m.order {
		m.checkers[name].Finish(horizon)
	}
}

// Occurrences returns the named predicate's occurrences.
func (m *MultiChecker) Occurrences(name string) []Occurrence {
	if c := m.checkers[name]; c != nil {
		return c.Occurrences()
	}
	return nil
}

// Spans converts a named predicate's occurrences to interval spans for
// the timing-relation matcher.
func (m *MultiChecker) Spans(name string) []intervals.Span {
	occ := m.Occurrences(name)
	out := make([]intervals.Span, 0, len(occ))
	for _, o := range occ {
		out = append(out, intervals.Span{Lo: o.Start, Hi: o.End})
	}
	return out
}
