package workload

import (
	"maps"
	"runtime"
	"strings"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// What ParseSpec made of one text. The tallies prove the fixed-seed draw
// reaches every way a spec can be wrong, a spec in its own spelling, and a
// spec spelled another way.
const (
	specDirective  = iota // an unknown directive
	specShape             // a directive with the wrong number of fields, or an argument that is not key=value
	specValue             // a number, duration or range that does not parse, or asks for work the horizon does not bound
	specObject            // an object id outside [0, ObjLimit), or a door count naming none
	specIncomplete        // no positive horizon, or no generator
	specCanonical         // a spec, spelled as String spells it
	specRespelled         // a spec, spelled another way
	specCases
)

// specOutcome classifies a ParseSpec error by the check that raised it.
func specOutcome(t *testing.T, err error) int {
	t.Helper()
	for out, marks := range [specCanonical][]string{
		specDirective:  {"unknown directive"},
		specShape:      {"takes one", "needs a name", "is not key=value"},
		specValue:      {"invalid syntax", "value out of range", "time: ", "negative duration", "inverted", "empty range", "is more than", "at one instant"},
		specObject:     {"lie outside", "names no object", "names no door", "puts object ids outside"},
		specIncomplete: {"non-positive horizon", "no generators"},
	} {
		for _, m := range marks {
			if strings.Contains(err.Error(), m) {
				return out
			}
		}
	}
	t.Fatalf("ParseSpec returned an error no check owns: %v", err)
	return -1
}

// specAllocBytes is what one ParseSpec and MaxObject of src allocate: the
// least of three TotalAlloc deltas (the delta is process-wide; the parse is
// deterministic, so the minimum is its own cost).
func specAllocBytes(src string) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if sp, err := ParseSpec(src); err == nil {
			sp.MaxObject()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// sameSpec is equality up to generator line numbers.
func sameSpec(a, b *Spec) bool {
	if a.Seed != b.Seed || a.Horizon != b.Horizon || a.Objects != b.Objects ||
		a.Predicate != b.Predicate || len(a.Gens) != len(b.Gens) {
		return false
	}
	for i, g := range a.Gens {
		if g.Name != b.Gens[i].Name || !maps.Equal(g.Args, b.Gens[i].Args) {
			return false
		}
	}
	return true
}

// specHorizon is the longest horizon specHostile materializes a spec at.
const specHorizon = 20 * sim.Millisecond

// specHostile feeds arbitrary text to ParseSpec, the `-workload` flag's
// parser. It must return a spec or an error, never panic, and allocate no
// more than a constant times the input's length. A spec must name no
// object outside [0, ObjLimit), and its String form must parse back to the
// same spec, whose String is the same text. A spec over fewer than 16
// objects is also materialized, at its horizon clipped to specHorizon:
// Source may refuse it, but what it builds must produce a canonical
// stream without panicking.
func specHostile(t *testing.T, src string) int {
	t.Helper()
	if got, limit := specAllocBytes(src), uint64(128*len(src)+4096); got > limit {
		t.Fatalf("ParseSpec allocated %d bytes for a %d-byte input (limit %d): %q", got, len(src), limit, src)
	}
	sp, err := ParseSpec(src)
	if err != nil {
		if sp != nil {
			t.Fatalf("ParseSpec returned both a spec and %v", err)
		}
		return specOutcome(t, err)
	}
	if m := sp.MaxObject(); m < -1 || m >= ObjLimit || sp.Objects < 0 || sp.Objects > ObjLimit {
		t.Fatalf("ParseSpec(%q) accepted objects %d, max object %d", src, sp.Objects, m)
	}
	once := sp.String()
	again, err := ParseSpec(once)
	if err != nil {
		t.Fatalf("String form %q of %q does not parse: %v", once, src, err)
	}
	if !sameSpec(sp, again) {
		t.Fatalf("spec changed across String → ParseSpec\nfirst:  %+v\nsecond: %+v", sp, again)
	}
	if twice := again.String(); twice != once {
		t.Fatalf("String is not a fixed point after one round\nfirst:  %s\nsecond: %s", once, twice)
	}
	if s, err := sp.Source(); err == nil && sp.MaxObject() < 16 {
		evs := s.Events(min(sp.Horizon, specHorizon))
		for i := 1; i < len(evs); i++ {
			if compare(evs[i-1], evs[i]) > 0 {
				t.Fatalf("%q: events %d and %d out of canonical order: %+v, %+v", src, i-1, i, evs[i-1], evs[i])
			}
		}
	}
	if once == src {
		return specCanonical
	}
	return specRespelled
}

// goodGens are generator directives ParseSpec accepts, the last two at the
// edge of the object bound.
var goodGens = []string{
	"generator toggler objs=0-7 attr=p meanhigh=80ms meanlow=120ms",
	"generator diurnal obj=4 meangap=15ms amp=0.9 period=700ms harmonics=2",
	"generator pareto obj=5 burstgap=150ms xm=2 alpha=1.2",
	"generator cohort objs=6-7 attr=q rho=0.8 seed=9",
	"generator hall doors=4 initial=10",
	"generator walk obj=2147483646 tick=500ms",
	"generator admissions doors=2147483646",
}

// drawSpec draws the lines of a small valid spec in a loose spelling:
// comments, blank lines, runs of blanks, a seed in hex, horizons in any
// unit.
func drawSpec(r *stats.RNG) []string {
	sp := []string{
		[]string{"seed 42", "seed 0x2a", "seed  7   # the run seed", "seed 0"}[r.Intn(4)],
		[]string{"horizon 2s", "horizon 150ms", "horizon\t1m", "horizon 1500000us"}[r.Intn(4)],
	}
	if r.Bool(0.5) {
		sp = append(sp, []string{"objects 8", "objects 0", "objects 2147483647"}[r.Intn(3)])
	}
	if r.Bool(0.5) {
		sp = append(sp, []string{"predicate sum(p) >= 3", "predicate  sum(x) - sum(y)   > 10 # hall"}[r.Intn(2)])
	}
	for k := 1 + r.Intn(3); k > 0; k-- {
		sp = append(sp, goodGens[r.Intn(len(goodGens))])
	}
	for k := r.Intn(3); k > 0; k-- {
		sp = append(sp, []string{"", "# a comment", "   "}[r.Intn(3)])
	}
	for i := len(sp) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		sp[i], sp[j] = sp[j], sp[i]
	}
	return sp
}

// The lines that fail each check, one family per outcome. The two object
// ranges at the head of specObject killed `pervasim -workload`: the first
// with makeslice: cap out of range, the second out of memory. So did the
// four lines at the tail of specValue once materialized: the hall ramp,
// the stacked pareto burst and the pareto train quadratic in the horizon
// ran out of memory, and the diurnal harmonics never returned.
var badSpecLines = [specIncomplete][]string{
	specDirective: {"foo bar", "generators toggler objs=0-1", "Seed 1"},
	specShape:     {"seed", "seed 1 2", "horizon", "objects 1 2", "generator", "generator toggler objs"},
	specValue: {"seed -1", "seed x", "horizon fast", "horizon -1s", "objects x", "generator toggler objs=3-0",
		"generator toggler objs=", "generator diurnal obj=x", "generator hall doors=9223372036854775808",
		"generator hall doors=4 initial=10000000000",
		"generator pareto obj=0 burstgap=100ms pulsegap=0s maxburst=1000000000 xm=1000000000",
		"generator pareto obj=0 burstgap=0s pulsegap=1us xm=100000",
		"generator diurnal obj=0 harmonics=10000000000"},
	specObject: {"generator toggler objs=0-9223372036854775807", "generator toggler objs=0-9999999999",
		"objects 9999999999", "objects -1", "generator diurnal obj=-1", "generator walk obj=2147483647",
		"generator hall doors=0", "generator admissions doors=0", "generator admissions doors=2147483647",
		"generator cohort objs=2147483640-2147483647"},
}

// mutateSpec turns the lines of a valid spec into one of the shapes a
// mistyped or hostile spec file takes.
func mutateSpec(r *stats.RNG, lines []string) string {
	switch k := r.Intn(8); {
	case k < len(badSpecLines): // one bad line among the good ones
		family := badSpecLines[k]
		at := r.Intn(len(lines) + 1)
		lines = append(lines[:at], append([]string{family[r.Intn(len(family))]}, lines[at:]...)...)
	case k == len(badSpecLines): // no horizon, or no generator
		drop, keep := "horizon", lines[:0]
		if r.Bool(0.5) {
			drop = "generator"
		}
		for _, l := range lines {
			if !strings.HasPrefix(l, drop) {
				keep = append(keep, l)
			}
		}
		if drop == "horizon" && r.Bool(0.5) {
			keep = append(keep, "horizon 0s")
		}
		lines = keep
	case k == len(badSpecLines)+1: // the loose spelling as drawn
	default: // the spec as String spells it
		sp, _ := ParseSpec(strings.Join(lines, "\n"))
		return sp.String()
	}
	return strings.Join(lines, "\n")
}

// TestParseSpecSurvivesHostileSpecs is FuzzWorkloadSpec's property at a
// fixed seed: drawn specs, then damaged. Every outcome is reached — each
// rejection family, a spec in String's spelling, a spec respelled —
// nothing panics or allocates past the bound, and every spec round-trips
// through String.
func TestParseSpecSurvivesHostileSpecs(t *testing.T) {
	r := stats.NewRNG(31)
	var seen [specCases]int
	for trial := 0; trial < 3000; trial++ {
		lines := drawSpec(r)
		want, err := ParseSpec(strings.Join(lines, "\n"))
		if err != nil {
			t.Fatalf("a drawn spec does not parse: %v\n%s", err, strings.Join(lines, "\n"))
		}
		src := mutateSpec(r, lines)
		out := specHostile(t, src)
		seen[out]++
		if out == specRespelled {
			if back, _ := ParseSpec(src); !sameSpec(back, want) {
				t.Fatalf("respelled %q parses to %+v, want %+v", src, back, want)
			}
		}
	}
	t.Logf("specs by outcome: %v", seen)
	for out, k := range seen {
		if k < 30 {
			t.Errorf("the draw reached outcome %d only %d times", out, k)
		}
	}
	for out, family := range badSpecLines {
		for _, l := range family {
			if got := specHostile(t, "horizon 1s\n"+l+"\ngenerator toggler objs=0-1\n"); got != out {
				t.Errorf("%q: outcome %d, want %d", l, got, out)
			}
		}
	}
}

// TestSpecRejectsHostileObjectRanges pins the two ranges that killed
// `pervasim -workload` — one with makeslice: cap out of range, one out of
// memory — as errors naming the line, from ParseSpec and from Source on a
// spec built without it.
func TestSpecRejectsHostileObjectRanges(t *testing.T) {
	for _, objs := range []string{"0-9223372036854775807", "0-9999999999"} {
		line := "generator toggler objs=" + objs
		if _, err := ParseSpec("horizon 1s\n" + line + "\n"); err == nil || !strings.Contains(err.Error(), "spec line 2:") {
			t.Errorf("ParseSpec(%q): error %v, want one naming spec line 2", line, err)
		}
		sp := &Spec{Horizon: sim.Second, Gens: []GenSpec{{Name: "toggler", Args: map[string]string{"objs": objs}, Line: 2}}}
		if _, err := sp.Source(); err == nil || !strings.Contains(err.Error(), "spec line 2:") {
			t.Errorf("Source over objs=%s: error %v, want one naming spec line 2", objs, err)
		}
	}
}

// FuzzWorkloadSpec is the same body under the native fuzzer. The checked-in
// corpus in testdata/fuzz/FuzzWorkloadSpec holds a valid spec, a respelled
// one, the two object ranges that killed `pervasim -workload`, a negative
// object, a door count of zero and an object count past the bound, and the
// five specs that killed it once materialized: an admissions flow with no
// door, a walk whose tick is zero, a hall ramp of 10¹⁰ visitors, a pareto
// burst of 10⁹ pulses at one instant and a diurnal profile of 10¹⁰
// harmonics.
func FuzzWorkloadSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		specHostile(t, src)
	})
}
