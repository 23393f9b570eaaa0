package world

import (
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// Ground truth for the Instantaneously modality: the exact half-open
// intervals of true global time during which a predicate held over the
// world log. The paper's detectors are scored against exactly these
// intervals. One walk produces them; two evaluators can drive it — the
// opaque closure of TrueIntervals (the differential reference) and
// predicate.Incremental behind Oracle (what runs are scored with; the
// checker tree drives the same evaluator).

// truthEval is the state the interval walk drives.
type truthEval interface {
	// apply folds one world event into the state.
	apply(ev Event)
	// Holds evaluates the predicate in the current state.
	Holds() bool
}

// walk replays the log up to horizon and returns the spans on which e held.
func walk(log []Event, horizon sim.Time, e truthEval) []Interval {
	var out []Interval
	cur := e.Holds()
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
		now := e.Holds()
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
func (r *replay) Holds() bool    { return r.pred(r.get) }

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
// KeysOf — bit for bit — by driving predicate.Incremental: every log event
// sets the variables its attribute backs, and the walk asks Holds after
// each batch (see predicate.Incremental for the exactness rule).
func (o Oracle) Intervals(log []Event, horizon sim.Time) []Interval {
	e := &oracleEval{keysOf: o.KeysOf}
	e.Init(o.Pred, o.N)
	out := walk(log, horizon, e)
	o.Obs.Counter("oracle.events").Add(e.events)
	o.Obs.Counter("oracle.clause_evals").Add(e.Evals)
	o.Obs.Counter("oracle.demoted_clauses").Add(e.Demoted)
	return out
}

// oracleEval feeds the log to the incremental evaluator through KeysOf.
type oracleEval struct {
	predicate.Incremental
	keysOf KeysOf
	keyBuf []predicate.Key
	events int64
}

func (e *oracleEval) apply(ev Event) {
	e.events++
	e.keyBuf = e.keysOf(e.keyBuf[:0], ev.Object, ev.Attr)
	for _, k := range e.keyBuf {
		e.Set(k, ev.New)
	}
}
