package tl

import (
	"fmt"
	"sort"
	"strings"

	"pervasive/internal/sim"
)

// Trace maps atomic proposition names to signals, all sharing a horizon.
type Trace struct {
	Atoms   map[string]Signal
	Horizon sim.Time
}

// NewTrace creates an empty trace over [0, horizon).
func NewTrace(horizon sim.Time) *Trace {
	return &Trace{Atoms: make(map[string]Signal), Horizon: horizon}
}

// Set installs an atom from raw spans.
func (tr *Trace) Set(name string, spans []Span) {
	tr.Atoms[name] = NewSignal(spans, tr.Horizon)
}

// Names returns the atom names, sorted.
func (tr *Trace) Names() []string {
	out := make([]string, 0, len(tr.Atoms))
	for n := range tr.Atoms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Formula is an MTL formula evaluated over a Trace.
type Formula interface {
	// Sat returns the satisfaction signal: true exactly at the instants
	// where the formula holds.
	Sat(tr *Trace) Signal
	fmt.Stringer
}

// Atom references a named proposition; unknown names are false everywhere.
type Atom string

// Sat implements Formula.
func (a Atom) Sat(tr *Trace) Signal {
	if s, ok := tr.Atoms[string(a)]; ok {
		return s
	}
	return Signal{Horizon: tr.Horizon}
}

func (a Atom) String() string { return string(a) }

// Const is a boolean literal.
type Const bool

// Sat implements Formula.
func (c Const) Sat(tr *Trace) Signal {
	if c {
		return NewSignal([]Span{{0, tr.Horizon}}, tr.Horizon)
	}
	return Signal{Horizon: tr.Horizon}
}

func (c Const) String() string {
	if c {
		return "true"
	}
	return "false"
}

// Not negates a formula.
type Not struct{ F Formula }

// Sat implements Formula.
func (n Not) Sat(tr *Trace) Signal { return n.F.Sat(tr).Not() }

func (n Not) String() string { return "!" + paren(n.F) }

// And conjoins two formulas.
type And struct{ L, R Formula }

// Sat implements Formula.
func (a And) Sat(tr *Trace) Signal { return a.L.Sat(tr).And(a.R.Sat(tr)) }

func (a And) String() string { return paren(a.L) + " && " + paren(a.R) }

// Or disjoins two formulas.
type Or struct{ L, R Formula }

// Sat implements Formula.
func (o Or) Sat(tr *Trace) Signal { return o.L.Sat(tr).Or(o.R.Sat(tr)) }

func (o Or) String() string { return paren(o.L) + " || " + paren(o.R) }

// Implies is material implication.
type Implies struct{ L, R Formula }

// Sat implements Formula.
func (im Implies) Sat(tr *Trace) Signal {
	return im.L.Sat(tr).Not().Or(im.R.Sat(tr))
}

func (im Implies) String() string { return paren(im.L) + " -> " + paren(im.R) }

// Window is a metric bound [Lo, Hi]; Hi == Unbounded means [Lo, ∞).
type Window struct {
	Lo, Hi sim.Duration
}

// full reports the trivial window [0, ∞).
func (w Window) full() bool { return w.Lo == 0 && w.Hi == Unbounded }

func (w Window) String() string {
	if w.Hi == Unbounded {
		return fmt.Sprintf("[%v,inf]", w.Lo)
	}
	return fmt.Sprintf("[%v,%v]", w.Lo, w.Hi)
}

// Eventually is F[w]φ.
type Eventually struct {
	W Window
	F Formula
}

// Sat implements Formula.
func (e Eventually) Sat(tr *Trace) Signal { return e.F.Sat(tr).Eventually(e.W.Lo, e.W.Hi) }

func (e Eventually) String() string { return temporal("F", e.W, e.F) }

// Always is G[w]φ.
type Always struct {
	W Window
	F Formula
}

// Sat implements Formula.
func (g Always) Sat(tr *Trace) Signal { return g.F.Sat(tr).Always(g.W.Lo, g.W.Hi) }

func (g Always) String() string { return temporal("G", g.W, g.F) }

// Once is the past operator O[w]φ.
type Once struct {
	W Window
	F Formula
}

// Sat implements Formula.
func (o Once) Sat(tr *Trace) Signal { return o.F.Sat(tr).Once(o.W.Lo, o.W.Hi) }

func (o Once) String() string { return temporal("O", o.W, o.F) }

// Historically is the past operator H[w]φ.
type Historically struct {
	W Window
	F Formula
}

// Sat implements Formula.
func (h Historically) Sat(tr *Trace) Signal { return h.F.Sat(tr).Historically(h.W.Lo, h.W.Hi) }

func (h Historically) String() string { return temporal("H", h.W, h.F) }

// Until is the untimed φ U ψ.
type Until struct{ L, R Formula }

// Sat implements Formula.
func (u Until) Sat(tr *Trace) Signal { return u.L.Sat(tr).Until(u.R.Sat(tr)) }

func (u Until) String() string { return paren(u.L) + " U " + paren(u.R) }

// temporal renders a temporal operator, its window and its operand. Without
// a window a space keeps the operand's name apart from the operator's: F a,
// not the atom Fa.
func temporal(op string, w Window, f Formula) string {
	if w.full() {
		return op + " " + paren(f)
	}
	return op + w.String() + paren(f)
}

func paren(f Formula) string {
	s := f.String()
	if strings.ContainsAny(s, " ") {
		return "(" + s + ")"
	}
	return s
}

// Monitor evaluates the formula at time 0 — "does the whole trace satisfy
// φ" in the usual monitoring sense.
func Monitor(f Formula, tr *Trace) bool {
	sat := f.Sat(tr)
	return sat.At(0)
}

// Violations returns the intervals where φ fails.
func Violations(f Formula, tr *Trace) []Span {
	return f.Sat(tr).Not().Spans
}
