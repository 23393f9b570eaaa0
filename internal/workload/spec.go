package workload

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pervasive/internal/sim"
)

// Scenario spec files make workloads data: a line-oriented, stdlib-
// parseable format that composes generators without code, consumed by
// `pervasim -workload spec.txt`.
//
// Grammar (one directive per line; '#' starts a comment):
//
//	seed 42
//	horizon 30s
//	objects 8                      # optional; default max referenced + 1
//	predicate sum(p) - sum(q) > 3  # scored predicate for the CLI harness
//	generator toggler objs=0-7 attr=p meanhigh=800ms meanlow=1.5s
//	generator diurnal obj=0 attr=p meangap=200ms amp=0.8 period=10s harmonics=3 phase=1.2 width=150ms
//	generator pareto obj=1 attr=p burstgap=2s xm=2 alpha=1.1 pulsegap=50ms width=40ms
//	generator cohort objs=2-5 attr=p meangap=1s width=300ms rho=0.7 lag=80ms jitter=40ms
//	generator walk obj=6 w=100 h=60 speed=1.5 tick=500ms
//	generator hall doors=4 arrival=500ms stay=100s initial=10
//	generator admissions doors=2 arrival=2s stay=40s wardvisit=30s
//
// Each generator may carry an explicit seed=N; otherwise its seed is
// derived from the spec seed and the generator's position, so one spec
// seed reproduces the whole composition.
type Spec struct {
	Seed      uint64
	Horizon   sim.Time
	Objects   int
	Predicate string
	Gens      []GenSpec
}

// GenSpec is one parsed generator directive.
type GenSpec struct {
	Name string
	Args map[string]string
	Line int
}

// ParseSpecFile reads and parses a spec file.
func ParseSpecFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(string(data))
}

// ParseSpec parses a spec from its text.
func ParseSpec(src string) (*Spec, error) {
	sp := &Spec{}
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		ln++ // 1-based for messages
		key, rest := fields[0], fields[1:]
		switch key {
		case "seed":
			if len(rest) != 1 {
				return nil, fmt.Errorf("spec line %d: seed takes one value", ln)
			}
			v, err := strconv.ParseUint(rest[0], 0, 64)
			if err != nil {
				return nil, fmt.Errorf("spec line %d: %v", ln, err)
			}
			sp.Seed = v
		case "horizon":
			if len(rest) != 1 {
				return nil, fmt.Errorf("spec line %d: horizon takes one duration", ln)
			}
			d, err := parseDur(rest[0])
			if err != nil {
				return nil, fmt.Errorf("spec line %d: %v", ln, err)
			}
			sp.Horizon = sim.Time(d)
		case "objects":
			if len(rest) != 1 {
				return nil, fmt.Errorf("spec line %d: objects takes one count", ln)
			}
			v, err := strconv.Atoi(rest[0])
			if err != nil {
				return nil, fmt.Errorf("spec line %d: %v", ln, err)
			}
			if v < 0 || v > ObjLimit {
				return nil, fmt.Errorf("spec line %d: objects %d puts object ids outside [0, %d)", ln, v, ObjLimit)
			}
			sp.Objects = v
		case "predicate":
			sp.Predicate = strings.Join(rest, " ")
		case "generator":
			if len(rest) < 1 {
				return nil, fmt.Errorf("spec line %d: generator needs a name", ln)
			}
			g := GenSpec{Name: rest[0], Args: map[string]string{}, Line: ln}
			for _, kv := range rest[1:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("spec line %d: argument %q is not key=value", ln, kv)
				}
				g.Args[k] = v
			}
			if err := g.check(); err != nil {
				return nil, err
			}
			sp.Gens = append(sp.Gens, g)
		default:
			return nil, fmt.Errorf("spec line %d: unknown directive %q", ln, key)
		}
	}
	if sp.Horizon <= 0 {
		return nil, fmt.Errorf("spec: missing or non-positive horizon")
	}
	if len(sp.Gens) == 0 {
		return nil, fmt.Errorf("spec: no generators")
	}
	return sp, nil
}

// Source builds the composed workload the spec describes.
func (sp *Spec) Source() (Source, error) {
	srcs := make([]Source, len(sp.Gens))
	for i, g := range sp.Gens {
		s, err := buildGen(g, DeriveSeed(sp.Seed, uint64(i)))
		if err != nil {
			return nil, err
		}
		srcs[i] = s
	}
	return Combine(srcs...), nil
}

// String renders the spec in its own grammar, one directive per line in a
// fixed order: seed and horizon, objects and predicate when set, then the
// generators with their arguments sorted by key. ParseSpec reads it back
// as the same spec (generator line numbers aside), whose String is the
// same text.
func (sp *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\nhorizon %dus\n", sp.Seed, sp.Horizon)
	if sp.Objects != 0 {
		fmt.Fprintf(&b, "objects %d\n", sp.Objects)
	}
	if sp.Predicate != "" {
		b.WriteString("predicate " + sp.Predicate + "\n")
	}
	for _, g := range sp.Gens {
		b.WriteString("generator " + g.Name)
		keys := make([]string, 0, len(g.Args))
		for k := range g.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(" " + k + "=" + g.Args[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MaxObject returns the largest object index the spec's generators can
// touch (for sizing a harness); -1 if none is derivable.
func (sp *Spec) MaxObject() int {
	maxO := -1
	for _, g := range sp.Gens {
		for _, key := range objectKeys {
			if _, hi, ok, err := g.span(key); ok && err == nil {
				maxO = max(maxO, hi)
			}
		}
	}
	return maxO
}

// ObjLimit bounds every object id a spec names to [0, ObjLimit): the
// process-index bound clock.SparseStrobeVector.Init enforces, so a spec
// that parses never names an object a sensor could not be. pervasim holds
// a replayed trace to the same bound.
const ObjLimit = math.MaxInt32

// objectKeys are the generator arguments that name object ids.
var objectKeys = [...]string{"obj", "objs", "doors"}

// span returns the inclusive object-id range a directive's key names:
// obj=o is [o, o], objs=a-b is [a, b], doors=n is [0, n-1] — [0, n] for
// admissions, whose ward is object n. ok is false when the key is absent.
func (g GenSpec) span(key string) (lo, hi int, ok bool, err error) {
	v, ok := g.Args[key]
	if !ok {
		return 0, 0, false, nil
	}
	if key == "objs" {
		lo, hi, err = parseRange(v)
		return lo, hi, true, err
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, 0, true, err
	}
	if key == "obj" {
		return n, n, true, nil
	}
	if g.Name == "admissions" {
		return 0, n, true, nil
	}
	return 0, n - 1, true, nil
}

// checkObjects rejects a directive whose object arguments do not parse or
// name an id outside [0, ObjLimit), and an admissions flow without a
// waiting-room door (its doors=0 still names the ward, object 0).
// Generators size slices and draw doors by these ids, so it runs before
// any generator is built.
func (g GenSpec) checkObjects() error {
	for _, key := range objectKeys {
		lo, hi, ok, err := g.span(key)
		switch {
		case !ok:
			continue
		case err != nil:
		case hi < lo:
			err = fmt.Errorf("names no object")
		case key == "doors" && g.Name == "admissions" && hi < 1:
			err = fmt.Errorf("names no door")
		case lo < 0 || hi >= ObjLimit:
			err = fmt.Errorf("object ids %d..%d lie outside [0, %d)", lo, hi, ObjLimit)
		default:
			continue
		}
		return fmt.Errorf("spec line %d: generator %s: %s: %v", g.Line, g.Name, key, err)
	}
	return nil
}

// MaxInitialOccupancy bounds a hall's initial occupancy: the visitors
// enter during a one-second ramp, one arrival per µs at most, and the
// ramp is generated whole whatever the horizon. pervasim's -initial is
// held to the same bound.
const MaxInitialOccupancy = 1_000_000

// maxHarmonics bounds a diurnal profile's harmonics, each of which costs
// a sine per sampled instant (E16 uses 3).
const maxHarmonics = 64

// checkWork rejects a directive whose arguments ask for work the horizon
// does not bound: a hall ramp of more than MaxInitialOccupancy visitors, a
// pareto burst with a non-positive pulse gap (every pulse of the burst at
// one instant, which the horizon never clips), and a diurnal profile of
// more than maxHarmonics harmonics. A value that does not parse is left to
// the generator's own accessor.
func (g GenSpec) checkWork() error {
	var err error
	switch g.Name {
	case "hall":
		if n, perr := strconv.Atoi(g.Args["initial"]); perr == nil && n > MaxInitialOccupancy {
			err = fmt.Errorf("initial: %d is more than %d (one arrival per µs of the one-second ramp)", n, MaxInitialOccupancy)
		}
	case "pareto":
		if v, ok := g.Args["pulsegap"]; ok {
			if d, perr := parseDur(v); perr == nil && d <= 0 {
				err = fmt.Errorf("pulsegap: %s puts every pulse of a burst at one instant", v)
			}
		}
	case "diurnal":
		if n, perr := strconv.Atoi(g.Args["harmonics"]); perr == nil && n > maxHarmonics {
			err = fmt.Errorf("harmonics: %d is more than %d", n, maxHarmonics)
		}
	}
	if err != nil {
		return fmt.Errorf("spec line %d: generator %s: %v", g.Line, g.Name, err)
	}
	return nil
}

// check runs checkObjects and checkWork: ParseSpec and buildGen both call
// it before any generator is built.
func (g GenSpec) check() error {
	if err := g.checkObjects(); err != nil {
		return err
	}
	return g.checkWork()
}

// genArgs wraps one directive's arguments with typed, error-collecting
// accessors so builders read like their generator's field list.
type genArgs struct {
	g    GenSpec
	used map[string]bool
	err  error
}

func (a *genArgs) fail(key string, err error) {
	if a.err == nil {
		a.err = fmt.Errorf("spec line %d: generator %s: %s: %v", a.g.Line, a.g.Name, key, err)
	}
}

func (a *genArgs) raw(key string) (string, bool) {
	a.used[key] = true
	v, ok := a.g.Args[key]
	return v, ok
}

func (a *genArgs) dur(key string, def sim.Duration) sim.Duration {
	v, ok := a.raw(key)
	if !ok {
		return def
	}
	d, err := parseDur(v)
	if err != nil {
		a.fail(key, err)
	}
	return d
}

func (a *genArgs) float(key string, def float64) float64 {
	v, ok := a.raw(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		a.fail(key, err)
	}
	return f
}

func (a *genArgs) num(key string, def int) int {
	v, ok := a.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		a.fail(key, err)
	}
	return n
}

func (a *genArgs) seed(def uint64) uint64 {
	v, ok := a.raw("seed")
	if !ok {
		return def
	}
	s, err := strconv.ParseUint(v, 0, 64)
	if err != nil {
		a.fail("seed", err)
	}
	return s
}

// objRange returns the inclusive range of the required objs argument,
// which checkObjects has already bounded.
func (a *genArgs) objRange() (lo, hi int) {
	v, ok := a.raw("objs")
	if !ok {
		a.fail("objs", fmt.Errorf("required"))
		return 0, -1
	}
	lo, hi, err := parseRange(v)
	if err != nil {
		a.fail("objs", err)
		return 0, -1
	}
	return lo, hi
}

func (a *genArgs) objs() []int {
	lo, hi := a.objRange()
	out := make([]int, 0, hi-lo+1)
	for o := lo; o <= hi; o++ {
		out = append(out, o)
	}
	return out
}

// finish reports the first accessor error or any unknown argument.
func (a *genArgs) finish() error {
	if a.err != nil {
		return a.err
	}
	keys := make([]string, 0, len(a.g.Args))
	for k := range a.g.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic error selection
	for _, k := range keys {
		if !a.used[k] {
			return fmt.Errorf("spec line %d: generator %s: unknown argument %q", a.g.Line, a.g.Name, k)
		}
	}
	return nil
}

// parseRange parses "a-b" (or a single "a") into an inclusive range.
func parseRange(s string) (lo, hi int, err error) {
	if s == "" {
		return 0, 0, fmt.Errorf("empty range")
	}
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	if lo, err = strconv.Atoi(a); err != nil {
		return 0, 0, err
	}
	if hi, err = strconv.Atoi(b); err != nil {
		return 0, 0, err
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("range %q is inverted", s)
	}
	return lo, hi, nil
}

// parseDur parses a Go duration string into simulated microseconds.
func parseDur(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return sim.Duration(d / time.Microsecond), nil
}

// buildGen constructs one generator from its directive.
func buildGen(g GenSpec, defSeed uint64) (Source, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	a := &genArgs{g: g, used: map[string]bool{}}
	attr := func() string {
		v, ok := a.raw("attr")
		if !ok {
			return "p"
		}
		return v
	}
	var src Source
	switch g.Name {
	case "toggler":
		lo, hi := a.objRange()
		src = TogglerFleet{
			Seed: a.seed(defSeed), N: hi - lo + 1, BaseObj: lo, Attr: attr(),
			MeanHigh: a.dur("meanhigh", 800*sim.Millisecond),
			MeanLow:  a.dur("meanlow", 1500*sim.Millisecond),
		}
	case "hall":
		src = HallTraffic{
			Seed: a.seed(defSeed), Doors: a.num("doors", 4),
			MeanArrival:      a.dur("arrival", 500*sim.Millisecond),
			MeanStay:         a.dur("stay", 100*sim.Second),
			InitialOccupancy: a.num("initial", 0),
		}
	case "admissions":
		src = Admissions{
			Seed: a.seed(defSeed), Doors: a.num("doors", 2),
			MeanArrival:   a.dur("arrival", 2*sim.Second),
			MeanStay:      a.dur("stay", 40*sim.Second),
			WardMeanVisit: a.dur("wardvisit", 30*sim.Second),
		}
	case "diurnal":
		src = Diurnal{
			Seed: a.seed(defSeed), Obj: a.num("obj", 0), Attr: attr(),
			MeanGap:   a.dur("meangap", 200*sim.Millisecond),
			Amp:       a.float("amp", 0.8),
			Period:    a.dur("period", 10*sim.Second),
			Harmonics: a.num("harmonics", 1),
			Phase:     a.float("phase", 0),
			Width:     a.dur("width", 150*sim.Millisecond),
		}
	case "pareto":
		src = ParetoBursts{
			Seed: a.seed(defSeed), Obj: a.num("obj", 0), Attr: attr(),
			MeanBurstGap: a.dur("burstgap", 2*sim.Second),
			Xm:           a.float("xm", 2),
			Alpha:        a.float("alpha", 1.2),
			MaxBurst:     a.num("maxburst", 0),
			PulseGap:     a.dur("pulsegap", 50*sim.Millisecond),
			Width:        a.dur("width", 40*sim.Millisecond),
		}
	case "cohort":
		src = Cohort{
			Seed: a.seed(defSeed), Objs: a.objs(), Attr: attr(),
			MeanGap: a.dur("meangap", sim.Second),
			Width:   a.dur("width", 300*sim.Millisecond),
			Rho:     a.float("rho", 0.7),
			Lag:     a.dur("lag", 80*sim.Millisecond),
			Jitter:  a.dur("jitter", 40*sim.Millisecond),
		}
	case "walk":
		tick := a.dur("tick", 500*sim.Millisecond)
		if tick <= 0 {
			a.fail("tick", fmt.Errorf("non-positive tick never advances the walk"))
		}
		src = MobilityWalk{
			Seed: a.seed(defSeed), Obj: a.num("obj", 0),
			W: a.float("w", 100), H: a.float("h", 100),
			Speed: a.float("speed", 1.4),
			Tick:  tick,
		}
	default:
		return nil, fmt.Errorf("spec line %d: unknown generator %q", g.Line, g.Name)
	}
	if err := a.finish(); err != nil {
		return nil, err
	}
	return src, nil
}
