package predicate

// Modality is the time modality under which a predicate is specified
// (Section 3.1.1).
type Modality int

// Supported modalities. Instantaneously is the single-time-axis modality
// — the predicate held at some instant of physical time; Possibly and
// Definitely are the partial-order modalities of Cooper–Marzullo [10].
const (
	Instantaneously Modality = iota
	Possibly
	Definitely
)

// String names the modality.
func (m Modality) String() string {
	switch m {
	case Instantaneously:
		return "Instantaneously"
	case Possibly:
		return "Possibly"
	default:
		return "Definitely"
	}
}

// Spec couples a predicate with the modality under which it must be
// detected — one point in the paper's specification design space.
type Spec struct {
	Pred     Cond
	Modality Modality
}

// String renders the spec as Modality(pred).
func (s Spec) String() string { return s.Modality.String() + "(" + s.Pred.String() + ")" }

// Conjunct is one locally evaluable piece of a conjunctive predicate: it
// reads variables of a single process.
type Conjunct struct {
	Proc int
	Cond Cond
}

// SplitAnd flattens nested top-level conjunctions into a list.
func SplitAnd(c Cond) []Cond { return appendAnd(nil, c) }

func appendAnd(out []Cond, c Cond) []Cond {
	if a, ok := c.(And); ok {
		return appendAnd(appendAnd(out, a.L), a.R)
	}
	return append(out, c)
}

// homeProc returns the single process that c's variables reference, or
// (-1, false) if c reads aggregates, multiple processes, or nothing.
func homeProc(c Cond) (int, bool) {
	proc := -2
	ok := true
	c.CollectVars(func(k Key) {
		if k.Proc < 0 { // aggregate: spans all processes
			ok = false
			return
		}
		if proc == -2 {
			proc = k.Proc
		} else if proc != k.Proc {
			ok = false
		}
	})
	if proc < 0 {
		return -1, false
	}
	return proc, ok
}

// AsConjunctive decomposes c into per-process conjuncts if every top-level
// conjunct is locally evaluable at one process (the conjunctive class of
// Section 3.1.2.a, detectable with the Garg–Waldecker family of
// algorithms). Multiple conjuncts at the same process are AND-combined.
// The second result reports whether the decomposition succeeded; a false
// result means the predicate is relational (Section 3.1.2.b).
func AsConjunctive(c Cond) ([]Conjunct, bool) {
	byProc := make(map[int]Cond)
	var order []int
	for _, part := range SplitAnd(c) {
		proc, ok := homeProc(part)
		if !ok {
			return nil, false
		}
		if prev, dup := byProc[proc]; dup {
			byProc[proc] = And{L: prev, R: part}
		} else {
			byProc[proc] = part
			order = append(order, proc)
		}
	}
	out := make([]Conjunct, 0, len(order))
	for _, p := range order {
		out = append(out, Conjunct{Proc: p, Cond: byProc[p]})
	}
	return out, len(out) > 0
}
