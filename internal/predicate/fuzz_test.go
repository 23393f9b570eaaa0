package predicate

import (
	"runtime"
	"strings"
	"testing"

	"pervasive/internal/stats"
)

// genCond builds a random predicate AST of bounded depth.
func genCond(r *stats.RNG, depth int) Cond {
	if depth <= 0 {
		return genCmp(r)
	}
	switch r.Intn(4) {
	case 0:
		return And{L: genCond(r, depth-1), R: genCond(r, depth-1)}
	case 1:
		return Or{L: genCond(r, depth-1), R: genCond(r, depth-1)}
	case 2:
		return Not{X: genCond(r, depth-1)}
	default:
		return genCmp(r)
	}
}

func genCmp(r *stats.RNG) Cond {
	return Cmp{
		Op: CmpOp(r.Intn(6)),
		L:  genExpr(r, 2),
		R:  genExpr(r, 2),
	}
}

func genExpr(r *stats.RNG, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return Const(float64(r.Intn(20)) - 10)
		case 1:
			return Var{Proc: r.Intn(3), Name: varNames[r.Intn(len(varNames))]}
		default:
			return Agg{Op: AggOp(r.Intn(4)), Name: varNames[r.Intn(len(varNames))]}
		}
	}
	switch r.Intn(3) {
	case 0:
		return Bin{Op: BinOp(r.Intn(4)), L: genExpr(r, depth-1), R: genExpr(r, depth-1)}
	case 1:
		return Neg{X: genExpr(r, depth-1)}
	default:
		return genExpr(r, 0)
	}
}

var varNames = []string{"x", "y", "temp"}

// What Parse made of one source. The tallies prove the fixed-seed draw
// reaches every way a predicate can be wrong, and a predicate.
const (
	outChar    = iota // a byte the lexer has no token for
	outNumber         // a number strconv cannot read
	outAgg            // an aggregate without its variable or its ")"
	outParen          // a "(" never closed
	outNesting        // nesting past maxNesting
	outType           // a boolean where a number belongs, or the reverse
	outVar            // a variable without a valid process
	outSyntax         // a token where the grammar has none
	outParsed         // a predicate
	outCases
)

// parseOutcome classifies a Parse error by the check that raised it. The
// marks are tried in outcome order, so "unexpected character" is a char
// error before it is a syntax one.
func parseOutcome(t *testing.T, err error) int {
	t.Helper()
	for out, marks := range [outParsed][]string{
		outChar:    {"unexpected character"},
		outNumber:  {"bad number"},
		outAgg:     {"needs a variable name", "missing ) after aggregate"},
		outParen:   {"missing )"},
		outNesting: {"nested deeper than"},
		outType:    {"numeric, not boolean", "expected a numeric expression", "expected a boolean predicate"},
		outVar:     {"needs a process", "expected process index", "process index must be"},
		outSyntax:  {"unexpected"},
	} {
		for _, m := range marks {
			if strings.Contains(err.Error(), m) {
				return out
			}
		}
	}
	t.Fatalf("Parse returned an error no check owns: %v", err)
	return -1
}

// parseAllocBytes is what one Parse of src allocates: the least of three
// TotalAlloc deltas. The delta is process-wide, so whatever the runtime
// allocates meanwhile lands in it too; the parse is deterministic, so that
// noise only adds and the minimum is the parse's own cost.
func parseAllocBytes(src string) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Parse(src)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// parseHostile feeds arbitrary text to Parse, the parser a `pervasim -spec`
// file's predicate line reaches. It must return a predicate or an error,
// never crash, and allocate no more than a constant times the input's
// length: 128, as for the other text parsers, since an error quotes the
// whole source and a byte that is not UTF-8 quotes as four. A predicate's
// String form must parse to a predicate that prints the same, unless it
// nests deeper than the source did (a flat chain prints nested) and is
// refused for that alone.
func parseHostile(t *testing.T, src string) int {
	t.Helper()
	if got, limit := parseAllocBytes(src), uint64(128*len(src)+4096); got > limit {
		t.Fatalf("Parse allocated %d bytes for a %d-byte input (limit %d): %q", got, len(src), limit, src)
	}
	c, err := Parse(src)
	if err != nil {
		if c != nil {
			t.Fatalf("Parse returned both a predicate and %v", err)
		}
		return parseOutcome(t, err)
	}
	once := c.String()
	again, err := Parse(once)
	if err != nil {
		if !strings.Contains(err.Error(), "nested deeper than") {
			t.Fatalf("String form %q of %q does not parse: %v", once, src, err)
		}
		return outParsed
	}
	if twice := again.String(); twice != once {
		t.Fatalf("String is not a fixed point after one round\nfirst:  %s\nsecond: %s", once, twice)
	}
	return outParsed
}

// The sources that fail each check, one family per error outcome.
var badSources = [outParsed][]string{
	outChar:    {"x@0 > 1 $ ignored", "x@0 # 1", "\x00 > 1"},
	outNumber:  {"x@0 > 1..2", ". > 1", "x@0 > 1 1.2.3"},
	outAgg:     {"sum( > 5", "sum(x > 5", "avg(1) > 0"},
	outParen:   {"(x@0 > 1", "((x@0 > 1)", "(x@0 > 1 && (y@1 < 2)"},
	outNesting: {strings.Repeat("(", maxNesting+1) + "x@0 > 1" + strings.Repeat(")", maxNesting+1), strings.Repeat("!", maxNesting+1) + "x@0 > 1"},
	outType:    {"1 + 1", "(x@0 > 1) * 2 > 1", "x@0 > 1 && 2", "!(1 + 2)"},
	outVar:     {"x > 1", "x@ > 1", "x@1.5 > 1", "x@-1 > 1"},
	outSyntax:  {"", "x@0 > 1 )", "&& x@0 > 1", "x@0 > > 1"},
}

// mutatePred turns the String form of a drawn predicate into one of the
// shapes a mistyped or hostile predicate line takes: a bad source of one
// family joined to it, the source respelled, or the source as drawn.
func mutatePred(r *stats.RNG, src string) string {
	switch k := r.Intn(10); {
	case k < len(badSources):
		switch bad := badSources[k][r.Intn(len(badSources[k]))]; k {
		case outParen:
			return "(" + src
		case outNesting:
			return bad + " && " + src
		case outType, outSyntax:
			return src + " && " + bad
		default:
			return bad + " || " + src
		}
	case k == len(badSources):
		return strings.NewReplacer(" ", "", "(", " ( ", ")", "\t)\n").Replace(src)
	}
	return src
}

// TestFuzzRoundTrip is FuzzPredicateParse's property at a fixed seed: drawn
// predicates, then damaged. Every outcome is reached, nothing crashes or
// allocates past the bound, and a drawn predicate read back from its String
// form is the same predicate on random states — parser and printer are
// exact inverses up to semantics.
func TestFuzzRoundTrip(t *testing.T) {
	r := stats.NewRNG(2024)
	var seen [outCases]int
	for trial := 0; trial < 3000; trial++ {
		orig := genCond(r, 3)
		src := mutatePred(r, orig.String())
		out := parseHostile(t, src)
		seen[out]++
		if out != outParsed {
			continue
		}
		re := MustParse(src)
		for k := 0; k < 10; k++ {
			s := MapState{N: 3, Vals: map[Key]float64{}}
			for p := 0; p < 3; p++ {
				for _, name := range varNames {
					s.Vals[Key{p, name}] = float64(r.Intn(9)) - 4
				}
			}
			if orig.Holds(s) != re.Holds(s) {
				t.Fatalf("trial %d: %q differs from its source %q on state %v", trial, orig, src, s.Vals)
			}
		}
	}
	t.Logf("sources by outcome: %v", seen)
	for out, k := range seen {
		if k < 30 {
			t.Errorf("the draw reached outcome %d only %d times", out, k)
		}
	}
	for out, family := range badSources {
		for _, src := range family {
			if got := parseHostile(t, src); got != out {
				t.Errorf("%q: outcome %d, want %d", src, got, out)
			}
		}
	}
}

// FuzzPredicateParse is the same body under the native fuzzer. The
// checked-in corpus in testdata/fuzz/FuzzPredicateParse holds a valid
// predicate, one respelled, nesting one level past the limit, a bad
// character after a complete predicate, and bytes that are not UTF-8.
func FuzzPredicateParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		parseHostile(t, src)
	})
}

// TestFuzzEvalNeverPanics drives random predicates over adversarial
// states (empty, negative process counts won't occur, NaN-free).
func TestFuzzEvalNeverPanics(t *testing.T) {
	r := stats.NewRNG(7)
	states := []State{
		MapState{N: 0, Vals: nil},
		MapState{N: 1, Vals: map[Key]float64{}},
		MapState{N: 5, Vals: map[Key]float64{{0, "x"}: 1e18, {4, "y"}: -1e18}},
	}
	for trial := 0; trial < 200; trial++ {
		c := genCond(r, 4)
		for _, s := range states {
			_ = c.Holds(s) // must not panic
		}
		_, _ = AsConjunctive(c) // must not panic either
	}
}
