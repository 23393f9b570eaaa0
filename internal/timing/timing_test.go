package timing

import (
	"testing"
	"testing/quick"

	"pervasive/internal/intervals"
	"pervasive/internal/sim"
)

func sp(lo, hi int64) intervals.Span {
	return intervals.Span{Lo: sim.Time(lo), Hi: sim.Time(hi)}
}

func TestBeforeBasic(t *testing.T) {
	s := Spec{Rel: XBeforeY}
	if !s.Holds(sp(0, 10), sp(20, 30)) {
		t.Fatal("clear before rejected")
	}
	if !s.Holds(sp(0, 10), sp(10, 30)) {
		t.Fatal("meets should satisfy before (gap 0)")
	}
	if s.Holds(sp(0, 15), sp(10, 30)) {
		t.Fatal("overlapping accepted as before")
	}
	if s.Holds(sp(20, 30), sp(0, 10)) {
		t.Fatal("after accepted as before")
	}
}

func TestBeforeByGapWindow(t *testing.T) {
	// "X before Y by real time greater than 5 seconds" (§3.1.1.a.ii).
	s := Spec{Rel: XBeforeY, MinGap: 5 * sim.Second}
	if s.Holds(sp(0, int64(sim.Second)), sp(int64(3*sim.Second), int64(4*sim.Second))) {
		t.Fatal("gap of 2s accepted for MinGap 5s")
	}
	if !s.Holds(sp(0, int64(sim.Second)), sp(int64(7*sim.Second), int64(8*sim.Second))) {
		t.Fatal("gap of 6s rejected")
	}
	// Bounded window.
	w := Spec{Rel: XBeforeY, MinGap: 0, MaxGap: 30 * sim.Second}
	if !w.Holds(sp(0, 10), sp(int64(10*sim.Second), int64(11*sim.Second))) {
		t.Fatal("10s gap inside 30s window rejected")
	}
	if w.Holds(sp(0, 10), sp(int64(50*sim.Second), int64(51*sim.Second))) {
		t.Fatal("50s gap outside 30s window accepted")
	}
}

func TestOverlapsDuringMeets(t *testing.T) {
	if !(Spec{Rel: XOverlapsY}).Holds(sp(0, 10), sp(5, 20)) {
		t.Fatal("overlap rejected")
	}
	if (Spec{Rel: XOverlapsY}).Holds(sp(0, 10), sp(10, 20)) {
		t.Fatal("touching accepted as overlap")
	}
	if !(Spec{Rel: XDuringY}).Holds(sp(5, 8), sp(0, 10)) {
		t.Fatal("during rejected")
	}
	if !(Spec{Rel: XDuringY}).Holds(sp(0, 10), sp(0, 10)) {
		t.Fatal("equals should satisfy during (containment)")
	}
	if (Spec{Rel: XDuringY}).Holds(sp(0, 12), sp(0, 10)) {
		t.Fatal("superset accepted as during")
	}
	if !(Spec{Rel: XMeetsY, Slack: 2}).Holds(sp(0, 10), sp(11, 20)) {
		t.Fatal("meets within slack rejected")
	}
	if (Spec{Rel: XMeetsY, Slack: 2}).Holds(sp(0, 10), sp(15, 20)) {
		t.Fatal("meets outside slack accepted")
	}
}

func TestEmptySpansNeverMatch(t *testing.T) {
	for _, rel := range []Rel{XBeforeY, XOverlapsY, XDuringY, XMeetsY} {
		if (Spec{Rel: rel, Slack: 100}).Holds(sp(5, 5), sp(0, 10)) {
			t.Fatalf("%v matched empty X", rel)
		}
		if (Spec{Rel: rel, Slack: 100}).Holds(sp(0, 10), sp(5, 5)) {
			t.Fatalf("%v matched empty Y", rel)
		}
	}
}

// Property: XBeforeY with no gap constraints agrees with the Allen
// classification Before/Meets.
func TestBeforeAgreesWithAllenProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		x := sp(int64(a), int64(a)+int64(b%40)+1)
		y := sp(int64(c), int64(c)+int64(d%40)+1)
		holds := (Spec{Rel: XBeforeY}).Holds(x, y)
		rel := intervals.Classify(x, y)
		want := rel == intervals.Before || rel == intervals.Meets
		return holds == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairsOneToOne(t *testing.T) {
	// Two passwords, three biometrics: each biometric takes the latest
	// unconsumed qualifying password; the third is unmatched.
	xs := []intervals.Span{sp(0, 10), sp(100, 110)}
	ys := []intervals.Span{sp(20, 30), sp(120, 130), sp(140, 150)}
	m := Matcher{Spec: Spec{Rel: XBeforeY, MaxGap: 100}}
	pairs := m.PairsOneToOne(xs, ys)
	if len(pairs) != 2 {
		t.Fatalf("pairs %v", pairs)
	}
	if pairs[0].XIdx != 0 || pairs[1].XIdx != 1 {
		t.Fatalf("pairs %v", pairs)
	}
	un := m.UnmatchedYOneToOne(xs, ys)
	if len(un) != 1 || un[0] != 2 {
		t.Fatalf("unmatched %v", un)
	}
}

func TestPairsOneToOnePrefersLatestX(t *testing.T) {
	// One biometric, two qualifying passwords: the latest is consumed.
	xs := []intervals.Span{sp(0, 10), sp(40, 50)}
	ys := []intervals.Span{sp(60, 70)}
	m := Matcher{Spec: Spec{Rel: XBeforeY, MaxGap: 100}}
	pairs := m.PairsOneToOne(xs, ys)
	if len(pairs) != 1 || pairs[0].XIdx != 1 {
		t.Fatalf("pairs %v", pairs)
	}
}

func TestSpecStrings(t *testing.T) {
	if (Spec{Rel: XBeforeY, MinGap: 5 * sim.Second}).String() == "" {
		t.Fatal("empty string")
	}
	if (Spec{Rel: XBeforeY, MinGap: 1, MaxGap: 2}).String() == "" {
		t.Fatal("empty string")
	}
	for _, r := range []Rel{XBeforeY, XOverlapsY, XDuringY, XMeetsY} {
		if r.String() == "" {
			t.Fatal("empty rel name")
		}
	}
}
