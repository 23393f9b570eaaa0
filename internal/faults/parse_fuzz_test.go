package faults

import (
	"runtime"
	"strings"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// What Parse made of one spec. The tallies prove the fixed-seed draw reaches
// every way a plan can be wrong, a plan in its own spelling, and a plan
// spelled another way.
const (
	outMalformed = iota // a clause that is not verb(args)
	outArity            // a known verb with the wrong number of arguments
	outNumber           // a process or partition member that is no index
	outGroups           // a partition of fewer than two groups
	outTime             // a time that is no non-negative duration
	outWindow           // a dup or reorder window with a bad field
	outUnknown          // an unknown verb
	outCanonical        // a plan, spelled as String spells it
	outRespelled        // a plan, spelled another way
	outCases
)

// parseOutcome classifies a Parse error by the check that raised it.
func parseOutcome(t *testing.T, err error) int {
	t.Helper()
	for out, marks := range [outCanonical][]string{
		outMalformed: {"malformed clause"},
		outArity:     {" wants ("},
		outNumber:    {"bad process", "bad member"},
		outGroups:    {"at least two groups"},
		outTime:      {"bad time"},
		outWindow:    {"bad dup clause", "bad reorder clause"},
		outUnknown:   {"unknown clause"},
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

// parseAllocBytes is what one Parse of spec allocates: the least of three
// TotalAlloc deltas. The delta is process-wide, so whatever the runtime
// allocates meanwhile lands in it too; the parse is deterministic, so that
// noise only adds and the minimum is the parse's own cost.
func parseAllocBytes(spec string) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Parse(spec)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// parseHostile feeds arbitrary text to Parse, the `-faults` flag's parser.
// It must return a plan or an error, never panic, and allocate no more than
// a constant times the input's length. The constant is 128: an error quotes
// the offending clause, the time package's error quotes the duration again,
// and a byte that is not UTF-8 quotes as four. A plan must name no negative
// process and no duplicate probability outside [0, 1], and its String form
// must parse back to a plan that prints the same (the input itself may
// spell the plan differently: spaces, "+1", sub-µs digits).
func parseHostile(t *testing.T, spec string) int {
	t.Helper()
	if got, limit := parseAllocBytes(spec), uint64(128*len(spec)+4096); got > limit {
		t.Fatalf("Parse allocated %d bytes for a %d-byte input (limit %d): %q", got, len(spec), limit, spec)
	}
	p, err := Parse(spec)
	if err != nil {
		if p != nil {
			t.Fatalf("Parse returned both a plan and %v", err)
		}
		return parseOutcome(t, err)
	}
	for _, e := range p.Events {
		if e.Proc < 0 {
			t.Fatalf("Parse(%q) accepted process %d", spec, e.Proc)
		}
	}
	for _, pt := range p.Partitions {
		for _, g := range pt.Groups {
			for _, m := range g {
				if m < 0 {
					t.Fatalf("Parse(%q) accepted member %d", spec, m)
				}
			}
		}
	}
	for _, w := range p.Dups {
		if !(w.P >= 0 && w.P <= 1) {
			t.Fatalf("Parse(%q) accepted probability %v", spec, w.P)
		}
	}
	once := p.String()
	again, err := Parse(once)
	if err != nil {
		t.Fatalf("String form %q of %q does not parse: %v", once, spec, err)
	}
	if twice := again.String(); twice != once {
		t.Fatalf("String is not a fixed point after one round\nfirst:  %s\nsecond: %s", once, twice)
	}
	if once == spec {
		return outCanonical
	}
	return outRespelled
}

// drawPlan draws a small valid plan: crashes and recoveries, partitions of
// two or three groups, dup and reorder windows, at µs-integral times.
func drawPlan(r *stats.RNG) *Plan {
	at := func() sim.Time { return sim.Time(r.Intn(4)) * sim.Time([]int{1, 1000, 1500000}[r.Intn(3)]) }
	p := NewPlan()
	for k := r.Intn(3); k > 0; k-- {
		if r.Intn(2) == 0 {
			p.Crash(r.Intn(10), at())
		} else {
			p.Recover(r.Intn(10), at())
		}
	}
	for k := r.Intn(2); k > 0; k-- {
		groups := make([][]int, 2+r.Intn(2))
		for i := range groups {
			groups[i] = []int{3 * i, 3*i + r.Intn(3)}
		}
		p.Partition(groups, at(), at())
	}
	for k := r.Intn(2); k > 0; k-- {
		p.Duplicate(at(), at(), float64(r.Intn(5))/4)
	}
	for k := r.Intn(2); k > 0; k-- {
		p.Reorder(at(), at(), sim.Duration(at()))
	}
	return p
}

// The clauses that fail each check, one family per outcome.
var badClauses = [outCanonical][]string{
	outMalformed: {"crash(1,1s", "crash 1 1s", "(1,1s)x"},
	outArity:     {"crash(1)", "recover(1,1s,2s)", "partition(0|1,1s)", "dup(0s,1s)", "reorder(1s)"},
	outNumber:    {"crash(x,1s)", "recover(-1,1s)", "crash(1e3,1s)", "partition(0.a|1,1s,2s)", "partition(0|-2,1s,2s)"},
	outGroups:    {"partition(0.1,1s,2s)", "partition(|,1s,2s)", "partition(.|3,1s,2s)"},
	outTime:      {"crash(1,10)", "recover(2,-1s)", "partition(0|1,zz,1s)", "crash(1,1sec)"},
	outWindow:    {"dup(0s,1s,1.5)", "dup(0s,1s,NaN)", "dup(x,1s,0.5)", "reorder(1s,x,1ms)", "reorder(0s,1s,-1ms)"},
	outUnknown:   {"crush(1,1s)", "(1,1s)", "dup2(0s,1s,0.5)"},
}

// respell writes the plan spec another way Parse must read the same: spaces
// around every separator, an empty clause, a "+" on a process, a time in
// nanoseconds.
func respell(r *stats.RNG, spec string) string {
	switch r.Intn(4) {
	case 0:
		spec = strings.NewReplacer(",", " , ", ";", " ; ", "(", " ( ").Replace(spec)
	case 1:
		spec = strings.Replace(spec, "crash(", "crash(+", 1)
		spec = strings.Replace(spec, "recover(", "recover(+", 1)
	case 2:
		spec = strings.Replace(spec, "1µs", "1000ns", 1)
		spec = strings.Replace(spec, "1ms", "1000µs", 1)
	}
	return spec + ";"
}

// mutatePlan turns the spec of a valid plan into one of the shapes a
// mistyped or hostile -faults flag takes.
func mutatePlan(r *stats.RNG, p *Plan) string {
	spec := p.String()
	switch k := r.Intn(10); {
	case k < len(badClauses): // one bad clause among the good ones
		family := badClauses[k]
		clauses := strings.Split(spec, ";")
		if spec == "" {
			clauses = nil
		}
		at := r.Intn(len(clauses) + 1)
		clauses = append(clauses[:at], append([]string{family[r.Intn(len(family))]}, clauses[at:]...)...)
		return strings.Join(clauses, ";")
	case k == len(badClauses):
		return respell(r, spec)
	}
	return spec // the plan as String spells it
}

// TestParseSurvivesHostilePlans is FuzzFaultsParse's property at a fixed
// seed: drawn plans, then damaged. Every outcome is reached — each rejection
// family, a plan in String's spelling, a plan respelled — nothing panics or
// allocates past the bound, and every plan round-trips through String.
func TestParseSurvivesHostilePlans(t *testing.T) {
	r := stats.NewRNG(26)
	var seen [outCases]int
	for trial := 0; trial < 3000; trial++ {
		p := drawPlan(r)
		spec := mutatePlan(r, p)
		out := parseHostile(t, spec)
		seen[out]++
		if out == outRespelled {
			if back, _ := Parse(spec); back.String() != p.String() {
				t.Fatalf("respelled %q parses to %q, want %q", spec, back.String(), p.String())
			}
		}
	}
	t.Logf("specs by outcome: %v", seen)
	for out, k := range seen {
		if k < 30 {
			t.Errorf("the draw reached outcome %d only %d times", out, k)
		}
	}
	for out, family := range badClauses {
		for _, c := range family {
			if got := parseHostile(t, c); got != out {
				t.Errorf("%q: outcome %d, want %d", c, got, out)
			}
		}
	}
}

// FuzzFaultsParse is the same body under the native fuzzer. The checked-in
// corpus in testdata/fuzz/FuzzFaultsParse holds a valid plan, a respelled
// one, the process indices that crashed core.ScheduleFaults, a negative
// process and member, a NaN probability, an unterminated clause and a
// duration of unquotable bytes.
func FuzzFaultsParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		parseHostile(t, spec)
	})
}
