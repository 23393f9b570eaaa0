package world

import (
	"math"

	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// Ground truth for the Instantaneously modality: the exact half-open
// intervals of true global time during which a predicate held over the
// world log. The paper's detectors are scored against exactly these
// intervals. One walk produces them; two evaluators can drive it — the
// opaque closure of TrueIntervals (the differential reference) and the
// incremental evaluator of Oracle (what runs are scored with).

// truthEval is the state the interval walk drives.
type truthEval interface {
	// apply folds one world event into the state.
	apply(ev Event)
	// holds evaluates the predicate in the current state.
	holds() bool
}

// walk replays the log up to horizon and returns the spans on which e held.
func walk(log []Event, horizon sim.Time, e truthEval) []Interval {
	var out []Interval
	cur := e.holds()
	var start sim.Time
	i := 0
	for i < len(log) {
		t := log[i].At
		if t > horizon {
			break
		}
		// apply all simultaneous events atomically: an instant observer
		// never sees a half-applied batch
		for i < len(log) && log[i].At == t {
			e.apply(log[i])
			i++
		}
		now := e.holds()
		if now && !cur {
			start = t
		}
		if !now && cur && t > start {
			out = append(out, Interval{Start: start, End: t})
		}
		cur = now
	}
	if cur && horizon > start {
		out = append(out, Interval{Start: start, End: horizon})
	}
	return out
}

// StatePredicate evaluates a global predicate on world-plane attribute
// values; get returns the current value of (object, attr).
type StatePredicate func(get func(obj int, attr string) float64) bool

// TrueIntervals replays the log and returns the exact half-open intervals
// of true global time during which pred held, up to horizon, evaluating
// pred whole after every batch of simultaneous events. Oracle computes the
// same intervals incrementally for predicate.Cond predicates; this is the
// entry point for arbitrary closures and the reference Oracle is held to.
func TrueIntervals(log []Event, pred StatePredicate, horizon sim.Time) []Interval {
	r := &replay{state: make(map[AttrKey]float64), pred: pred}
	r.get = func(obj int, attr string) float64 { return r.state[AttrKey{obj, attr}] }
	return walk(log, horizon, r)
}

// replay is the reference evaluator: a map of attribute values and the
// predicate as a black box.
type replay struct {
	state map[AttrKey]float64
	pred  StatePredicate
	get   func(obj int, attr string) float64
}

func (r *replay) apply(ev Event) { r.state[AttrKey{ev.Object, ev.Attr}] = ev.New }
func (r *replay) holds() bool    { return r.pred(r.get) }

// KeysOf is the truth adapter between the planes: it appends to dst the
// predicate variables that world attribute (obj, attr) backs and returns
// the extended slice. An attribute may back several variables (one object
// sensed by several processes) or none; a variable nothing backs reads 0.
type KeysOf func(dst []predicate.Key, obj int, attr string) []predicate.Key

// IdentityKeys is the adapter of stacks whose log already speaks the
// predicate's language: object i's attribute a is variable a at process i.
func IdentityKeys(dst []predicate.Key, obj int, attr string) []predicate.Key {
	return append(dst, predicate.Key{Proc: obj, Name: attr})
}

// Oracle scores a predicate.Cond against world logs.
type Oracle struct {
	Pred predicate.Cond
	// N is the process count aggregates range over.
	N      int
	KeysOf KeysOf
	// Obs, if non-nil, receives oracle.events (log events replayed),
	// oracle.clause_evals (conjunct evaluations, incremental or whole) and
	// oracle.demoted_clauses (linear conjuncts evaluated whole because a
	// constant or value failed the exactness rule).
	Obs *obs.Registry
}

// Intervals returns what TrueIntervals returns for Pred read through
// KeysOf — bit for bit — in O(1) per event for the conjuncts that allow
// it: each linear comparison side is a running ±1 sum updated by
// new − previous, trusted while every constant and value folded into the
// conjunct is a predicate.ExactInt and their summed magnitudes stay below
// 2⁵³ (so no evaluation order can round); the first value that breaks the
// rule demotes the conjunct, for the rest of the log, to re-evaluation of
// its AST against the evaluator's own value table. Opaque conjuncts are
// re-evaluated only after a variable they read changed, conjuncts holding
// a FuncCond after every batch.
func (o Oracle) Intervals(log []Event, horizon sim.Time) []Interval {
	e := newIncremental(o.Pred, o.N, o.KeysOf)
	out := walk(log, horizon, e)
	o.Obs.Counter("oracle.events").Add(e.events)
	o.Obs.Counter("oracle.clause_evals").Add(e.evals)
	o.Obs.Counter("oracle.demoted_clauses").Add(e.demoted)
	return out
}

// incClause is the incremental evaluator's state for one conjunct.
type incClause struct {
	cond predicate.Cond
	op   predicate.CmpOp
	// exact: sum holds the two side values and mag < 2⁵³ bounds them.
	exact bool
	sum   [2]float64
	mag   float64
	truth bool
	dirty bool
}

// hook says that a slot's value feeds side `side` of clause `clause` with
// weight ±1; for clauses that are not exact only the clause matters.
type hook struct {
	clause int32
	side   int8
	neg    bool
}

// incremental is the evaluator behind Oracle.Intervals. Every variable a
// tracked conjunct reads (aggregates expanded over the n processes) owns a
// slot: slot maps its key to an index into vals, and
// hooks[hookAt[s]:hookAt[s+1]] are the conjuncts reading slot s.
type incremental struct {
	n      int
	keysOf KeysOf
	slot   map[predicate.Key]int32
	vals   []float64
	hookAt []int32
	hooks  []hook

	cls      []incClause
	dirty    []int32 // tracked clauses touched since the last holds
	numFalse int     // tracked clauses currently false
	// untracked clauses (predicate.Clause.Untracked) are evaluated after
	// every batch; extra holds the variables no slot covers, kept only for
	// them to read.
	untracked []int32
	extra     map[predicate.Key]float64

	keyBuf []predicate.Key

	events, evals, demoted int64
}

func newIncremental(pred predicate.Cond, n int, keysOf KeysOf) *incremental {
	e := &incremental{n: n, keysOf: keysOf}
	clauses := predicate.Compile(pred)
	e.cls = make([]incClause, len(clauses))

	// Pass 1: assign slots and list every (slot, hook) pair in clause order.
	type pair struct {
		slot int32
		h    hook
	}
	var pairs []pair
	e.slot = make(map[predicate.Key]int32)
	read := func(k predicate.Key, h hook) {
		lo, hi := k.Proc, k.Proc+1
		if k.Proc == -1 { // aggregate: every process's k.Name
			lo, hi = 0, n
		}
		for p := lo; p < hi; p++ {
			key := predicate.Key{Proc: p, Name: k.Name}
			s, ok := e.slot[key]
			if !ok {
				s = int32(len(e.slot))
				e.slot[key] = s
			}
			pairs = append(pairs, pair{slot: s, h: h})
		}
	}
	for i, cl := range clauses {
		c := &e.cls[i]
		c.cond, c.op = cl.Cond, cl.Op
		if cl.Untracked {
			e.untracked = append(e.untracked, int32(i))
			continue
		}
		if cl.Linear {
			c.sum = [2]float64{cl.Sides[0].Konst, cl.Sides[1].Konst}
			c.mag = cl.Sides[0].Mag + cl.Sides[1].Mag
			c.exact = c.mag < 1<<53
			if !c.exact {
				e.demoted++
			}
		}
		if c.exact {
			for side := range cl.Sides {
				for _, t := range cl.Sides[side].Terms {
					read(t.Key, hook{clause: int32(i), side: int8(side), neg: t.Neg})
				}
			}
		} else {
			cl.Cond.CollectVars(func(k predicate.Key) { read(k, hook{clause: int32(i)}) })
		}
	}
	if len(e.untracked) > 0 {
		e.extra = make(map[predicate.Key]float64)
	}

	// Pass 2: bucket the pairs by slot (counting sort keeps clause order).
	e.vals = make([]float64, len(e.slot))
	e.hookAt = make([]int32, len(e.slot)+1)
	for _, p := range pairs {
		e.hookAt[p.slot+1]++
	}
	for s := range e.vals {
		e.hookAt[s+1] += e.hookAt[s]
	}
	e.hooks = make([]hook, len(pairs))
	next := make([]int32, len(e.vals))
	copy(next, e.hookAt)
	for _, p := range pairs {
		e.hooks[next[p.slot]] = p.h
		next[p.slot]++
	}

	// Initial truth at the all-zero state: start every tracked clause at
	// true and let refresh count the false ones.
	for i := range e.cls {
		if !clauses[i].Untracked {
			e.cls[i].truth = true
			e.refresh(&e.cls[i])
		}
	}
	return e
}

// Get implements predicate.State over the evaluator's own values.
func (e *incremental) Get(proc int, name string) float64 {
	k := predicate.Key{Proc: proc, Name: name}
	if s, ok := e.slot[k]; ok {
		return e.vals[s]
	}
	return e.extra[k]
}

// NumProcs implements predicate.State.
func (e *incremental) NumProcs() int { return e.n }

func (e *incremental) apply(ev Event) {
	e.events++
	e.keyBuf = e.keysOf(e.keyBuf[:0], ev.Object, ev.Attr)
	for _, k := range e.keyBuf {
		s, ok := e.slot[k]
		if !ok {
			if e.extra != nil {
				e.extra[k] = ev.New
			}
			continue
		}
		old := e.vals[s]
		e.vals[s] = ev.New
		for _, h := range e.hooks[e.hookAt[s]:e.hookAt[s+1]] {
			c := &e.cls[h.clause]
			if c.exact {
				e.fold(c, h, old, ev.New)
			}
			if !c.dirty {
				c.dirty = true
				e.dirty = append(e.dirty, h.clause)
			}
		}
	}
}

// fold moves one hooked value from old to v inside an exact clause, or
// demotes the clause when v breaks the exactness rule. old was folded
// while the clause was exact, so it is an ExactInt.
func (e *incremental) fold(c *incClause, h hook, old, v float64) {
	c.mag += math.Abs(v) - math.Abs(old)
	if !predicate.ExactInt(v) || c.mag >= 1<<53 {
		c.exact = false
		e.demoted++
		return
	}
	d := v - old
	if h.neg {
		d = -d
	}
	c.sum[h.side] += d
}

func (e *incremental) holds() bool {
	for _, i := range e.dirty {
		c := &e.cls[i]
		c.dirty = false
		e.refresh(c)
	}
	e.dirty = e.dirty[:0]
	if e.numFalse > 0 {
		return false
	}
	for _, i := range e.untracked {
		e.evals++
		if !e.cls[i].cond.Holds(e) {
			return false
		}
	}
	return true
}

// refresh re-derives one tracked clause's truth and maintains numFalse.
func (e *incremental) refresh(c *incClause) {
	e.evals++
	var truth bool
	if c.exact {
		truth = predicate.CmpEval(c.op, c.sum[0], c.sum[1])
	} else {
		truth = c.cond.Holds(e)
	}
	if truth != c.truth {
		c.truth = truth
		if truth {
			e.numFalse--
		} else {
			e.numFalse++
		}
	}
}
