package checker

import "pervasive/internal/predicate"

// The evaluation plan: the predicate compiled by predicate.Compile into
// clauses, each either *linear* (both comparison sides are ±1-weighted
// sums of per-process variables, sum() aggregates and constants —
// maintained incrementally) or *opaque* (kept whole, re-evaluated against
// the distributed view when a variable it reads changes). The plan is
// immutable after construction; all mutable clause state lives in the
// Tree.

// clause is one conjunct of the predicate.
type clause struct {
	idx int
	predicate.Clause

	// keys are the variables the clause reads; aggregates appear as
	// Key{Proc: -1}. Used for the opaque affected-check and boundary
	// relevance.
	keys map[predicate.Key]struct{}
	// home is the single region hosting every variable the clause reads,
	// or -1 when the clause spans regions (aggregates always span).
	home int
}

// coef is one incremental-update hook: when its key's value changes by
// delta, side `side` of clause `cl` changes by c·delta.
type coef struct {
	cl   *clause
	side int
	c    float64 // ±1
}

// Plan is the compiled predicate.
type Plan struct {
	n       int
	clauses []*clause
	// byKey maps a concrete Key — or Key{Proc: -1, Name} for aggregate
	// readers — to the linear-update hooks it drives.
	byKey map[predicate.Key][]coef
	// opaqueByKey maps the same keys to the opaque clauses reading them.
	opaqueByKey map[predicate.Key][]*clause
}

// NewPlan compiles pred over n processes; regionOf assigns each process
// to its aggregator's region (used only to mark region-local clauses).
func NewPlan(pred predicate.Cond, n int, regionOf func(int) int) *Plan {
	p := &Plan{
		n:           n,
		byKey:       make(map[predicate.Key][]coef),
		opaqueByKey: make(map[predicate.Key][]*clause),
	}
	for _, c := range predicate.Compile(pred) {
		cl := &clause{idx: len(p.clauses), Clause: c, home: -1, keys: make(map[predicate.Key]struct{})}
		c.Cond.CollectVars(func(k predicate.Key) { cl.keys[k] = struct{}{} })
		cl.home = homeRegion(cl, regionOf)
		p.clauses = append(p.clauses, cl)
		if cl.Linear {
			for side := range cl.Sides {
				for _, t := range cl.Sides[side].Terms {
					p.addCoef(t.Key, cl, side, t.Neg)
				}
			}
		} else {
			for k := range cl.keys { //lint:allow determtaint(order-insensitive: fans the clause out into a map indexed by the ranged key itself, so iteration order cannot reach any output)
				p.opaqueByKey[k] = append(p.opaqueByKey[k], cl)
			}
		}
	}
	return p
}

func (p *Plan) addCoef(k predicate.Key, cl *clause, side int, neg bool) {
	c := 1.0
	if neg {
		c = -1.0
	}
	p.byKey[k] = append(p.byKey[k], coef{cl: cl, side: side, c: c})
}

// homeRegion returns the single region hosting every variable the clause
// reads, or -1 when it reads none, spans regions, or aggregates.
func homeRegion(cl *clause, regionOf func(int) int) int {
	home := -1
	for k := range cl.keys { //lint:allow determtaint(order-insensitive: the answer is the unique common region or -1, identical whichever key is visited first)
		if k.Proc < 0 {
			return -1
		}
		r := regionOf(k.Proc)
		if home == -1 {
			home = r
		} else if home != r {
			return -1
		}
	}
	return home
}

// boundaryKey reports whether (proc, name) is read by any clause that is
// not settled entirely inside region r — the criterion for forwarding
// the value upward in a sync batch.
func (p *Plan) boundaryKey(proc int, name string, r int) bool {
	for _, c := range p.byKey[predicate.Key{Proc: proc, Name: name}] {
		if c.cl.home != r {
			return true
		}
	}
	for _, c := range p.byKey[predicate.Key{Proc: -1, Name: name}] {
		if c.cl.home != r {
			return true
		}
	}
	for _, cl := range p.opaqueByKey[predicate.Key{Proc: proc, Name: name}] {
		if cl.home != r {
			return true
		}
	}
	for _, cl := range p.opaqueByKey[predicate.Key{Proc: -1, Name: name}] {
		if cl.home != r {
			return true
		}
	}
	return false
}
