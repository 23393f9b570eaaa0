package tl

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// What Parse made of one source. The tallies prove the fixed-seed draw
// reaches every way a formula can be wrong, and a formula.
const (
	outParen    = iota // a "(" never closed
	outWindow          // a window without its "," or "]", or upside down
	outDuration        // a window bound that is no duration
	outNesting         // nesting past maxNesting
	outSyntax          // a token where the grammar has none
	outParsed          // a formula
	outCases
)

// parseOutcome classifies a Parse error by the check that raised it.
func parseOutcome(t *testing.T, err error) int {
	t.Helper()
	for out, marks := range [outParsed][]string{
		outParen:    {"missing )"},
		outWindow:   {"expected [", "expected , in window", "expected ] in window", "upper bound below lower bound"},
		outDuration: {"expected duration", "bad duration"},
		outNesting:  {"nested deeper than"},
		outSyntax:   {"unexpected"},
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
// TotalAlloc deltas (see the predicate package's twin for why the least).
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

// parseHostile feeds arbitrary text to Parse. It must return a formula or an
// error, never crash, and allocate no more than 128 times the input's length
// (an error quotes the whole source). A formula's String form must parse to
// a formula that prints the same, unless it nests deeper than the source
// did (a flat chain prints nested) and is refused for that alone.
func parseHostile(t *testing.T, src string) int {
	t.Helper()
	if got, limit := parseAllocBytes(src), uint64(128*len(src)+4096); got > limit {
		t.Fatalf("Parse allocated %d bytes for a %d-byte input (limit %d): %q", got, len(src), limit, src)
	}
	f, err := Parse(src)
	if err != nil {
		if f != nil {
			t.Fatalf("Parse returned both a formula and %v", err)
		}
		return parseOutcome(t, err)
	}
	once := f.String()
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

// genFormula draws a formula of bounded depth over the atoms a, b and c,
// with windows whole in the unit Time.String prints them in.
func genFormula(r *stats.RNG, depth int) Formula {
	if depth <= 0 || r.Intn(4) == 0 {
		if r.Intn(8) == 0 {
			return Const(r.Intn(2) == 0)
		}
		return Atom([]string{"a", "b", "c"}[r.Intn(3)])
	}
	sub := func() Formula { return genFormula(r, depth-1) }
	switch r.Intn(10) {
	case 0:
		return Not{sub()}
	case 1:
		return And{sub(), sub()}
	case 2:
		return Or{sub(), sub()}
	case 3:
		return Implies{sub(), sub()}
	case 4:
		return Until{sub(), sub()}
	case 5:
		return Eventually{genWindow(r), sub()}
	case 6:
		return Always{genWindow(r), sub()}
	case 7:
		return Once{genWindow(r), sub()}
	default:
		return Historically{genWindow(r), sub()}
	}
}

func genWindow(r *stats.RNG) Window {
	unit := []sim.Duration{sim.Microsecond, sim.Millisecond, sim.Second}[r.Intn(3)]
	w := Window{Lo: sim.Duration(r.Intn(3)) * unit, Hi: Unbounded}
	if r.Intn(2) == 0 {
		w.Hi = w.Lo + sim.Duration(r.Intn(3))*unit
	}
	return w
}

// The sources that fail each check, one family per error outcome.
var badSources = [outParsed][]string{
	outParen:    {"(a", "((a)", "(a && (b || c)"},
	outWindow:   {"F[1s] a", "F[2s,1s] a", "F[0,1s a"},
	outDuration: {"F[,1s] a", "F[x,1s] a", "F[NaN,1s] a", "F[99999999999999999999999,inf] a"},
	outNesting: {
		strings.Repeat("(", maxNesting+1) + "a" + strings.Repeat(")", maxNesting+1),
		strings.Repeat("!", maxNesting+1) + "a",
		strings.Repeat("F ", maxNesting+1) + "a",
		strings.Repeat("a -> ", maxNesting+1) + "a",
	},
	outSyntax: {"", "a &&", "a )", "&& a", "@"},
}

// mutateFormula turns the String form of a drawn formula into one of the
// shapes a mistyped or hostile formula takes: a bad source of one family
// joined to it, the source respelled, or the source as drawn.
func mutateFormula(r *stats.RNG, src string) string {
	switch k := r.Intn(8); {
	case k < len(badSources):
		switch bad := badSources[k][r.Intn(len(badSources[k]))]; k {
		case outParen:
			return "(" + src
		case outSyntax:
			return "(" + src + ") && " + bad
		default:
			return bad + " || (" + src + ")"
		}
	case k == len(badSources):
		return strings.NewReplacer(" ", " \t ", "(", "( ", ")", "\n)", ",", " , ", "[", " [ ").Replace(src)
	}
	return src
}

// satTrace sets the drawn formulas' atoms over a 10 s horizon.
func satTrace() *Trace {
	tr := NewTrace(10 * sim.Second)
	tr.Set("a", []Span{{0, 2 * sim.Second}, {5 * sim.Second, 6 * sim.Second}})
	tr.Set("b", []Span{{1 * sim.Second, 1*sim.Second + 500*sim.Millisecond}})
	tr.Set("c", []Span{{3 * sim.Second, 9 * sim.Second}})
	return tr
}

// TestParseSurvivesHostileFormulas is FuzzTLParse's property at a fixed
// seed: drawn formulas, then damaged. Every outcome is reached, nothing
// crashes or allocates past the bound, and a drawn formula read back from
// its String form is satisfied at the same instants.
func TestParseSurvivesHostileFormulas(t *testing.T) {
	r := stats.NewRNG(30)
	tr := satTrace()
	var seen [outCases]int
	for trial := 0; trial < 2000; trial++ {
		orig := genFormula(r, 4)
		src := mutateFormula(r, orig.String())
		out := parseHostile(t, src)
		seen[out]++
		if out == outParsed && !slices.Equal(orig.Sat(tr).Spans, MustParse(src).Sat(tr).Spans) {
			t.Fatalf("trial %d: %q is satisfied elsewhere than its source %q", trial, orig, src)
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

// FuzzTLParse is the same body under the native fuzzer. The checked-in
// corpus in testdata/fuzz/FuzzTLParse holds a valid formula, one respelled,
// nesting one level past the limit, an unbounded operator without a window,
// a window bound past maxDuration, and bytes that are not UTF-8.
func FuzzTLParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		parseHostile(t, src)
	})
}
