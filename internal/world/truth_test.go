package world

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// binding is one way the predicate's variables hang off world attributes,
// in both directions: attrOf is how the reference reads a variable, keysOf
// the adapter the oracle gets. They must be inverses.
type binding struct {
	attrOf func(k predicate.Key) (AttrKey, bool)
	keysOf KeysOf
}

var identityBinding = binding{
	attrOf: func(k predicate.Key) (AttrKey, bool) { return AttrKey{k.Proc, k.Name}, true },
	keysOf: IdentityKeys,
}

// pairedBinding has sensors 2i and 2i+1 both sense object i, except sensor
// n-1, which senses nothing: one attribute backs several variables, and an
// unbound variable reads 0.
func pairedBinding(n int) binding {
	return binding{
		attrOf: func(k predicate.Key) (AttrKey, bool) {
			return AttrKey{k.Proc / 2, k.Name}, k.Proc != n-1
		},
		keysOf: func(dst []predicate.Key, obj int, attr string) []predicate.Key {
			for _, p := range []int{2 * obj, 2*obj + 1} {
				if p != n-1 {
					dst = append(dst, predicate.Key{Proc: p, Name: attr})
				}
			}
			return dst
		},
	}
}

// refState is the pre-oracle adapter: predicate.State over the reference
// replay's world values.
type refState struct {
	n      int
	attrOf func(k predicate.Key) (AttrKey, bool)
	get    func(obj int, attr string) float64
}

func (s refState) Get(proc int, name string) float64 {
	a, ok := s.attrOf(predicate.Key{Proc: proc, Name: name})
	if !ok {
		return 0
	}
	return s.get(a.Object, a.Attr)
}

func (s refState) NumProcs() int { return s.n }

// diffOracle demands that the incremental oracle and the TrueIntervals
// reference agree exactly, and returns the intervals.
func diffOracle(t *testing.T, pred predicate.Cond, n int, b binding, log []Event, horizon sim.Time, reg *obs.Registry) []Interval {
	t.Helper()
	want := TrueIntervals(log, func(get func(int, string) float64) bool {
		return pred.Holds(refState{n: n, attrOf: b.attrOf, get: get})
	}, horizon)
	got := Oracle{Pred: pred, N: n, KeysOf: b.keysOf, Obs: reg}.Intervals(log, horizon)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("oracle diverged from TrueIntervals\npred    %s\nn       %d  horizon %d\nlog     %s\noracle  %v\nwant    %v",
			pred, n, horizon, fmtLog(log), got, want)
	}
	return got
}

func fmtLog(log []Event) string {
	var sb strings.Builder
	for _, ev := range log {
		fmt.Fprintf(&sb, "t%d:%s@%d=%v ", ev.At, ev.Attr, ev.Object, ev.New)
	}
	return sb.String()
}

// draw decodes choices from a byte string; an exhausted string reads 0.
type draw struct {
	b []byte
	i int
}

func (d *draw) next() int {
	if d.i >= len(d.b) {
		return 0
	}
	d.i++
	return int(d.b[d.i-1])
}

var (
	truthAttrs = []string{"x", "y", "z"}
	cmpOps     = []string{">", ">=", "<", "<=", "==", "!="}
	aggOps     = []string{"avg", "min", "max", "sum"}
)

func drawVar(d *draw, n int) string {
	// n+1 processes: the last one is outside every aggregate
	return truthAttrs[d.next()%2] + "@" + strconv.Itoa(d.next()%(n+1))
}

// drawLinear writes a ±1-weighted sum of variables, sum() aggregates and
// constants — integral ones except when the draw says otherwise, so most
// clauses start out exact.
func drawLinear(d *draw, n int) string {
	var sb strings.Builder
	for i, terms := 0, 1+d.next()%4; i < terms; i++ {
		c := d.next()
		if i > 0 {
			sb.WriteString([]string{" + ", " - "}[c&1])
		} else if c&1 == 1 {
			sb.WriteString("-")
		}
		switch (c >> 1) % 8 {
		case 0, 1, 2, 3:
			sb.WriteString(drawVar(d, n))
		case 4, 5:
			sb.WriteString("sum(" + truthAttrs[(c>>4)%2] + ")")
		case 6:
			sb.WriteString(strconv.Itoa(c >> 4))
		default:
			sb.WriteString(strconv.Itoa(c>>4) + ".5")
		}
	}
	return sb.String()
}

func drawClause(d *draw, n, depth int) string {
	kind := d.next() % 8
	if depth == 0 && kind >= 6 {
		kind -= 6
	}
	switch kind {
	case 0, 1, 2, 3: // linear
		return drawLinear(d, n) + " " + cmpOps[d.next()%6] + " " + drawLinear(d, n)
	case 4: // product or quotient
		return drawVar(d, n) + []string{" * ", " / "}[d.next()%2] + drawVar(d, n) + " " + cmpOps[d.next()%6] + " " + strconv.Itoa(d.next()%5)
	case 5: // aggregates, sum() under a product included
		return aggOps[d.next()%4] + "(" + truthAttrs[d.next()%2] + ") * 2 " + cmpOps[d.next()%6] + " " + aggOps[d.next()%3] + "(" + truthAttrs[d.next()%2] + ")"
	case 6:
		return "(" + drawClause(d, n, depth-1) + " || " + drawClause(d, n, depth-1) + ")"
	default:
		return "!(" + drawClause(d, n, depth-1) + ")"
	}
}

// drawValue spans what a log can hold: mostly small integers (repeats
// included), then non-integral, huge-but-exact, huge-inexact and
// non-finite values.
func drawValue(class, b int) float64 {
	switch class % 16 {
	case 12:
		return float64(b) * 0.1
	case 13:
		return []float64{1<<52 - 1, -(1<<52 - 1), 1<<52 - 2, 1 << 51}[b%4]
	case 14:
		return []float64{1 << 52, 1 << 53, 1e300, -1e300}[b%4]
	case 15:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[b%4]
	}
	return float64(b%9 - 4)
}

// truthCase decodes one differential input from data: a fleet size, a
// binding, a predicate (text through predicate.Parse, optionally AND-ed
// with a FuncCond that under-declares what it reads), a horizon, and a log
// with simultaneous batches and events past the horizon.
func truthCase(t *testing.T, data []byte) (pred predicate.Cond, n int, b binding, log []Event, horizon sim.Time) {
	d := &draw{b: data}
	shape := d.next()
	n = 1 + shape%5
	b = identityBinding
	if shape&8 != 0 {
		b = pairedBinding(n)
	}
	clauses := make([]string, 1+(shape>>4)%3)
	for i := range clauses {
		clauses[i] = drawClause(d, n, 2)
	}
	src := strings.Join(clauses, " && ")
	pred, err := predicate.Parse(src)
	if err != nil {
		t.Fatalf("generated predicate %q does not parse: %v", src, err)
	}
	if shape&64 != 0 {
		pred = predicate.And{L: pred, R: predicate.FuncCond{
			F:    func(s predicate.State) bool { return s.Get(0, "z")+s.Get(1, "x") < 3 },
			Keys: []predicate.Key{{Proc: 0, Name: "z"}},
			Desc: "z@0 + x@1 < 3 (x@1 undeclared)",
		}}
	}
	h := d.next()
	var at sim.Time
	for d.i < len(d.b) {
		b0, b1, b2 := d.next(), d.next(), d.next()
		at += sim.Time([]int{0, 0, 1, 2}[b0&3])
		log = append(log, Event{
			Seq: len(log), At: at, Cause: NoCause,
			Object: (b0 >> 2) % (n + 2), Attr: truthAttrs[b1%3],
			New: drawValue(b1>>2, b2),
		})
	}
	return pred, n, b, log, sim.Time(h % (int(at) + 3))
}

// TestTruthOracleMatchesReference is the differential property test: over
// random predicates, bindings and logs the incremental oracle must return
// exactly what TrueIntervals returns. The counters prove the draw reached
// every path: exact sums, demotions, and non-trivial truth.
func TestTruthOracleMatchesReference(t *testing.T) {
	r := stats.NewRNG(16)
	reg := obs.NewRegistry()
	held, flipped := 0, 0
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 8+r.Intn(160))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		pred, n, b, log, horizon := truthCase(t, data)
		ivs := diffOracle(t, pred, n, b, log, horizon, reg)
		if len(ivs) > 0 {
			held++
		}
		if len(ivs) > 1 {
			flipped++
		}
	}
	events := reg.Counter("oracle.events").Value()
	evals := reg.Counter("oracle.clause_evals").Value()
	demoted := reg.Counter("oracle.demoted_clauses").Value()
	t.Logf("events %d, clause evals %d, demoted clauses %d; %d cases held, %d flipped more than once",
		events, evals, demoted, held, flipped)
	if events == 0 || evals == 0 || demoted == 0 || held < 100 || flipped < 100 {
		t.Errorf("the draw no longer reaches every path")
	}
}

// FuzzTruthOracle is the same body under the native fuzzer; the checked-in
// corpus in testdata/fuzz/FuzzTruthOracle has one entry per path (exact,
// demoted three ways, opaque, FuncCond under a shared binding, events past
// the horizon).
func FuzzTruthOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pred, n, b, log, horizon := truthCase(t, data)
		diffOracle(t, pred, n, b, log, horizon, nil)
	})
}

// setLog builds a log of x@proc = v events, one per microsecond from t = 1.
func setLog(sets ...[2]float64) []Event {
	log := make([]Event, len(sets))
	for i, s := range sets {
		log[i] = Event{Seq: i, At: sim.Time(i + 1), Object: int(s[0]), Attr: "x", New: s[1], Cause: NoCause}
	}
	return log
}

// TestTruthOracleDemotesMidLog flips a conjunct from exact to demoted in
// the middle of a log, on inputs where a running sum kept past the
// exactness rule rounds differently from the AST walk — so each case fails
// if its half of the guard (integrality, magnitude) is removed.
func TestTruthOracleDemotesMidLog(t *testing.T) {
	const big = 1<<52 - 1
	cases := []struct {
		name, pred string
		log        []Event
		want       []Interval
	}{
		{
			// (0.1 + 0.2) + 0.3 > 0.6 as Eval adds it; 0.3, 0.2, 0.1
			// accumulated in event order make exactly 0.6.
			name: "integrality",
			pred: "x@0 + x@1 + x@2 > x@3",
			log: setLog([2]float64{0, 1}, [2]float64{0, 0}, [2]float64{3, 0.6},
				[2]float64{2, 0.3}, [2]float64{1, 0.2}, [2]float64{0, 0.1}),
			want: []Interval{{1, 2}, {6, 10}},
		},
		{
			// Every value is an exact integer, but five of them pass 2⁵³
			// and the two association orders round apart.
			name: "magnitude",
			pred: "x@0 + x@1 + x@2 + x@3 + x@4 == x@4 + x@3 + x@2 + x@1 + x@0",
			log:  setLog([2]float64{4, big - 1}, [2]float64{3, big}, [2]float64{2, big}, [2]float64{1, big}, [2]float64{0, big}),
			want: []Interval{{0, 4}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			got := diffOracle(t, predicate.MustParse(c.pred), 5, identityBinding, c.log, 10, reg)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("intervals %v, want %v", got, c.want)
			}
			if d := reg.Counter("oracle.demoted_clauses").Value(); d != 1 {
				t.Errorf("oracle.demoted_clauses = %d, want 1", d)
			}
		})
	}
}

// TestTruthOracleStaysIncremental: integral values keep every linear
// conjunct exact — one comparison per touched conjunct per batch, whatever
// the width — and events the predicate never reads cost no evaluation.
func TestTruthOracleStaysIncremental(t *testing.T) {
	reg := obs.NewRegistry()
	log := setLog([2]float64{0, 3}, [2]float64{1, 4}, [2]float64{0, 1})
	log = append(log, Event{At: 4, Object: 0, Attr: "unread", New: 7})
	got := diffOracle(t, predicate.MustParse("sum(x) >= 5 && x@1 - x@0 < 4"), 64, identityBinding, log, 10, reg)
	if want := []Interval{{2, 10}}; !reflect.DeepEqual(got, want) {
		t.Errorf("intervals %v, want %v", got, want)
	}
	// 2 initial evaluations + 2 clauses touched by each of the 3 x events
	for name, want := range map[string]int64{"oracle.events": 4, "oracle.clause_evals": 8, "oracle.demoted_clauses": 0} {
		if v := reg.Counter(name).Value(); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
}

// TestTruthOracleDeepChain scores the pilot shape p@0 + … + p@(m-1) >= k
// at m = 65 536: the compile step and the evaluator must not recurse once
// per term.
func TestTruthOracleDeepChain(t *testing.T) {
	const m = 1 << 16
	terms := make([]string, m)
	log := make([]Event, m)
	for i := range terms {
		terms[i] = "p@" + strconv.Itoa(i)
		log[i] = Event{Seq: i, At: sim.Time(i + 1), Object: i, Attr: "p", New: 1, Cause: NoCause}
	}
	pred := predicate.MustParse(strings.Join(terms, " + ") + " >= " + strconv.Itoa(m/2))
	reg := obs.NewRegistry()
	got := Oracle{Pred: pred, N: m, KeysOf: IdentityKeys, Obs: reg}.Intervals(log, m+1)
	if want := []Interval{{m / 2, m + 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("intervals %v, want %v", got, want)
	}
	if d := reg.Counter("oracle.demoted_clauses").Value(); d != 0 {
		t.Errorf("oracle.demoted_clauses = %d, want 0", d)
	}
}
