package timing

import (
	"reflect"
	"testing"

	"pervasive/internal/intervals"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/world"
)

// What timingOracle saw. Case 2·Rel is a pair the spec holds on and
// 2·Rel+1 one it fails on; then come the two inputs the mutation checks
// need: an XBeforeY pair whose gap equals a positive MinGap (the spec says
// "by more than"), and a Y that more than one unused X qualifies for
// (one-to-one matching must take the latest).
const (
	oracleGapAtMin = 2*4 + iota // XBeforeY, gap == MinGap > 0
	oracleChoice                // a Y with ≥ 2 qualifying unused X
	oracleCases
)

// The shape of a drawn input: a spec header, then toggles on a grid.
const (
	oracleHeader     = 4  // spec bytes before the toggles
	oracleGrid       = 64 // µs: the horizon of a drawn world
	oracleMaxAdvance = 8  // a toggle lands 0–7 µs after the previous one
	oracleMinGaps    = 8  // MinGap is drawn below this
)

// drawWorld decodes toggles of objects 0 (X) and 1 (Y) from ops — each byte
// b toggles object b&1 attribute "p", (b>>1)%8 µs after the previous toggle,
// until the grid ends — runs them through a world and returns each
// object's true spans by world.TrueIntervals over the world log.
func drawWorld(ops []byte) (xs, ys []intervals.Span) {
	eng := sim.NewEngine(1)
	w := world.New(eng)
	objs := [2]int{w.AddObject("x", nil), w.AddObject("y", nil)}
	at := sim.Time(0)
	for _, b := range ops {
		at += sim.Time(b>>1) % oracleMaxAdvance
		if at >= oracleGrid {
			break
		}
		obj := objs[b&1]
		eng.At(at, func(sim.Time) { w.Set(obj, "p", 1-w.Get(obj, "p")) })
	}
	eng.RunAll()
	spans := func(obj int) []intervals.Span {
		var out []intervals.Span
		held := func(get func(int, string) float64) bool { return get(obj, "p") == 1 }
		for _, iv := range world.TrueIntervals(w.Log(), held, oracleGrid) {
			out = append(out, intervals.Span{Lo: iv.Start, Hi: iv.End})
		}
		return out
	}
	return spans(objs[0]), spans(objs[1])
}

// bruteHolds decides the spec on a pair by walking the grid instant by
// instant rather than comparing endpoints.
func bruteHolds(s Spec, x, y intervals.Span) bool {
	in := func(sp intervals.Span, t sim.Time) bool { return sp.Lo <= t && t < sp.Hi }
	first, last := sim.Time(-1), sim.Time(-1) // Y's first instant, X's last
	shared, xInY := false, true
	for t := sim.Time(0); t < oracleGrid; t++ {
		if in(y, t) && first < 0 {
			first = t
		}
		if in(x, t) {
			last = t
			shared = shared || in(y, t)
			xInY = xInY && in(y, t)
		}
	}
	switch s.Rel {
	case XBeforeY:
		if first <= last {
			return false
		}
		var gap sim.Duration // instants after X's last and before Y's first
		for t := last + 1; t < first; t++ {
			gap++
		}
		return (s.MinGap == 0 || gap > s.MinGap) && (s.MaxGap == 0 || gap <= s.MaxGap)
	case XOverlapsY:
		return shared
	case XDuringY:
		return xInY
	default: // XMeetsY: Y starts within Slack of the instant after X
		d := first - (last + 1)
		return max(d, -d) <= s.Slack
	}
}

// timingOracle decodes a spec from the first oracleHeader bytes of data —
// the relation, a MinGap below oracleMinGaps (zero when bit 4 is set),
// a MaxGap below 32 (zero is unbounded) and a Slack below 8 — and two
// toggling objects from the rest. Spec.Holds must equal the per-instant
// reading on every (x, y) pair, and PairsOneToOne must equal a brute-force
// matching that gives each Y, in order, the latest unused X that holds.
func timingOracle(t *testing.T, data []byte) (seen [oracleCases]int) {
	t.Helper()
	if len(data) < oracleHeader {
		return seen
	}
	s := Spec{
		Rel:    Rel(data[0] % 4),
		MinGap: sim.Duration(data[1] % oracleMinGaps),
		MaxGap: sim.Duration(data[2] % 32),
		Slack:  sim.Duration(data[3] % 8),
	}
	if data[1]&0x10 != 0 {
		s.MinGap = 0
	}
	xs, ys := drawWorld(data[oracleHeader:])
	for _, x := range xs {
		for _, y := range ys {
			got, want := s.Holds(x, y), bruteHolds(s, x, y)
			if got != want {
				t.Fatalf("%+v on x %+v, y %+v: Holds %v, per-instant %v", s, x, y, got, want)
			}
			if got {
				seen[2*s.Rel]++
			} else {
				seen[2*s.Rel+1]++
			}
			if s.Rel == XBeforeY && s.MinGap > 0 && y.Lo-x.Hi == s.MinGap {
				seen[oracleGapAtMin]++
			}
		}
	}
	used := make([]bool, len(xs))
	var want []Match
	for yi, y := range ys {
		best, qualifying := -1, 0
		for xi, x := range xs {
			if used[xi] || !bruteHolds(s, x, y) {
				continue
			}
			qualifying++
			if best < 0 || x.Lo > xs[best].Lo {
				best = xi
			}
		}
		if qualifying > 1 {
			seen[oracleChoice]++
		}
		if best >= 0 {
			used[best] = true
			want = append(want, Match{XIdx: best, YIdx: yi})
		}
	}
	if got := (Matcher{Spec: s}).PairsOneToOne(xs, ys); !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v over xs %+v, ys %+v:\nPairsOneToOne %+v\nlatest unused X %+v", s, xs, ys, got, want)
	}
	return seen
}

// TestTimingOracle is FuzzTimingOracle's body at a fixed seed: every
// relation both holds and fails on ≥ 30 pairs, and the MinGap boundary and
// a Y with a choice of X are each reached ≥ 30 times.
func TestTimingOracle(t *testing.T) {
	r := stats.NewRNG(23)
	var seen [oracleCases]int
	for trial := 0; trial < 6000; trial++ {
		data := make([]byte, oracleHeader+r.Intn(40))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		for c, k := range timingOracle(t, data) {
			seen[c] += k
		}
	}
	t.Logf("cases: %v", seen)
	for c, k := range seen {
		if k < 30 {
			t.Errorf("the draw reached case %d only %d times", c, k)
		}
	}
}

// FuzzTimingOracle is the same body under the native fuzzer. The checked-in
// corpus in testdata/fuzz/FuzzTimingOracle holds one world per relation on
// which the relation both holds and fails.
func FuzzTimingOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		timingOracle(t, data)
	})
}
