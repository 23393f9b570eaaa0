package faults

import (
	"testing"

	"pervasive/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	in := "crash(2,10s);recover(2,30s);partition(0.1|2.3,10s,20s);dup(5s,15s,0.3);reorder(5s,15s,50ms)"
	p, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != in {
		t.Fatalf("round trip:\n in  %s\n out %s", in, got)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if p2.String() != in {
		t.Fatalf("second round trip diverged: %s", p2.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"crash(1)",               // missing time
		"crash(x,10s)",           // bad proc
		"boom(1,10s)",            // unknown verb
		"partition(0.1,10s,20s)", // single group
		"dup(0s,1s,1.5)",         // p out of range
		"crash(1,-5s)",           // negative time
		"crash 1 10s",            // no parens
		"crash(-1,1s)",           // negative proc
		"partition(0|-2,1s,2s)",  // negative member
		"dup(0s,1s,NaN)",         // p not a number
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestPlanCheck: in a fleet of n sensors, crash/recover may target
// sensors 0..n-1 and a partition may also cut off the checker, process n.
func TestPlanCheck(t *testing.T) {
	const n = 4
	for _, c := range []struct {
		name string
		plan *Plan
		ok   bool
	}{
		{"nil plan", nil, true},
		{"empty plan", NewPlan(), true},
		{"crash 0", NewPlan().Crash(0, sim.Second), true},
		{"recover n-1", NewPlan().Recover(n-1, sim.Second), true},
		{"negative crash", NewPlan().Crash(-1, sim.Second), false},
		{"crash n", NewPlan().Crash(n, sim.Second), false},
		{"recover n", NewPlan().Recover(n, sim.Second), false},
		{"partition member n", NewPlan().Partition([][]int{{0}, {n}}, sim.Second, 2*sim.Second), true},
		{"partition member n+1", NewPlan().Partition([][]int{{0}, {n + 1}}, sim.Second, 2*sim.Second), false},
		{"negative partition member", NewPlan().Partition([][]int{{-1}, {1}}, sim.Second, 2*sim.Second), false},
	} {
		if err := c.plan.Check(n); (err == nil) != c.ok {
			t.Errorf("%s: Check(%d) = %v, want ok=%v", c.name, n, err, c.ok)
		}
	}
}

func TestDowntimesNormalize(t *testing.T) {
	p := NewPlan().
		Crash(0, 10*sim.Second).
		Crash(0, 12*sim.Second). // redundant crash while down: ignored
		Recover(0, 20*sim.Second).
		Recover(0, 21*sim.Second). // redundant recovery while up: ignored
		Crash(0, 30*sim.Second).   // unmatched: down forever
		Recover(1, 5*sim.Second).  // recovery while up: ignored
		Crash(1, 40*sim.Second).
		Recover(1, 45*sim.Second)
	down := p.Downtimes()
	if len(down) != 2 {
		t.Fatalf("procs %d", len(down))
	}
	want0 := []Interval{{10 * sim.Second, 20 * sim.Second}, {30 * sim.Second, sim.Never}}
	if len(down[0]) != 2 || down[0][0] != want0[0] || down[0][1] != want0[1] {
		t.Fatalf("proc0 windows %v", down[0])
	}
	if len(down[1]) != 1 || down[1][0] != (Interval{40 * sim.Second, 45 * sim.Second}) {
		t.Fatalf("proc1 windows %v", down[1])
	}
	// Transitions is the normalized schedule.
	tr := p.Transitions()
	if len(tr) != 5 { // crash/recover/crash for p0, crash/recover for p1
		t.Fatalf("transitions %v", tr)
	}
}

func TestInjectorDownAndCut(t *testing.T) {
	p := NewPlan().
		Crash(1, 10*sim.Second).Recover(1, 20*sim.Second).
		Partition([][]int{{0, 1}, {2}}, 30*sim.Second, 40*sim.Second)
	in := NewInjector(p)
	if in == nil {
		t.Fatal("nil injector for non-empty plan")
	}
	cases := []struct {
		proc int
		at   sim.Time
		down bool
	}{
		{1, 9 * sim.Second, false},
		{1, 10 * sim.Second, true},
		{1, 19*sim.Second + 999999, true},
		{1, 20 * sim.Second, false},
		{0, 15 * sim.Second, false},
		{7, 15 * sim.Second, false}, // unlisted proc never down
	}
	for _, c := range cases {
		if got := in.Down(c.proc, c.at); got != c.down {
			t.Errorf("Down(%d, %v) = %v", c.proc, c.at, got)
		}
	}
	if in.Cut(0, 2, 29*sim.Second) || !in.Cut(0, 2, 30*sim.Second) || in.Cut(0, 2, 40*sim.Second) {
		t.Fatal("partition window boundaries wrong")
	}
	if in.Cut(0, 1, 35*sim.Second) {
		t.Fatal("same group cut")
	}
	// Unlisted processes (e.g. the checker) stay reachable.
	if in.Cut(0, 5, 35*sim.Second) || in.Cut(5, 2, 35*sim.Second) {
		t.Fatal("unlisted process was cut")
	}
}

func TestInjectorWindows(t *testing.T) {
	p := NewPlan().
		Duplicate(5*sim.Second, 15*sim.Second, 0.3).
		Duplicate(10*sim.Second, 12*sim.Second, 0.8).
		Reorder(5*sim.Second, 15*sim.Second, 50*sim.Millisecond)
	in := NewInjector(p)
	if got := in.DupProb(4 * sim.Second); got != 0 {
		t.Fatalf("dup outside window %v", got)
	}
	if got := in.DupProb(6 * sim.Second); got != 0.3 {
		t.Fatalf("dup %v", got)
	}
	if got := in.DupProb(11 * sim.Second); got != 0.8 {
		t.Fatalf("overlapping dup takes max: %v", got)
	}
	if got := in.ReorderJitter(6 * sim.Second); got != 50*sim.Millisecond {
		t.Fatalf("jitter %v", got)
	}
	if got := in.ReorderJitter(15 * sim.Second); got != 0 {
		t.Fatalf("jitter at window end %v", got)
	}
}

func TestNilInjectorIsNoFaults(t *testing.T) {
	var in *Injector
	if in.Down(0, 0) || in.Cut(0, 1, 0) || in.DupProb(0) != 0 || in.ReorderJitter(0) != 0 {
		t.Fatal("nil injector injected something")
	}
	if NewInjector(nil) != nil || NewInjector(NewPlan()) != nil {
		t.Fatal("empty plan should compile to nil injector")
	}
}
