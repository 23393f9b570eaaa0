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
// algorithms): one conjunct per process it reads, in the order the
// processes first appear, each reading only its process's variables.
// Multiple conjuncts at the same process are AND-combined. The second
// result reports whether the decomposition succeeded; a false result
// means the predicate is relational (Section 3.1.2.b).
func AsConjunctive(c Cond) ([]Cond, bool) {
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
	out := make([]Cond, 0, len(order))
	for _, p := range order {
		out = append(out, byProc[p])
	}
	return out, len(out) > 0
}
