package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// pervasim runs one invocation in-process and returns its exit status,
// stdout and stderr.
func pervasim(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRefusedFlags: every flag combination a scenario would ignore exits
// 2, names the scenario it was refused for, and prints no report; so does
// a hall ramp past workload.MaxInitialOccupancy.
func TestRefusedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // substrings of stderr
	}{
		// Office and scale wire their own fixed clocks: -kind, -epsilon
		// and -trace would be ignored.
		{[]string{"-scenario", "office", "-kind", "scalar"}, []string{"-kind", "office", "strobe-vector"}},
		{[]string{"-scenario", "office", "-epsilon", "3s"}, []string{"-epsilon", "office"}},
		{[]string{"-scenario", "office", "-trace", "t.json"}, []string{"-trace", "office"}},
		{[]string{"-scenario", "scale", "-kind", "physical"}, []string{"-kind", "scale", "strobe-diff-vector"}},
		{[]string{"-scenario", "scale", "-epsilon", "1us"}, []string{"-epsilon", "scale"}},
		{[]string{"-scenario", "scale", "-trace", "t.json"}, []string{"-trace", "scale"}},
		// The flight recorder is single-writer; a fleet does not feed it.
		{[]string{"-scenario", "scale", "-flight", "dumps"}, []string{"-flight", "scale", "single-writer"}},
		// The office's closed loop has no workload to record or replay.
		{[]string{"-scenario", "office", "-record", "w.pvwl"}, []string{"-record", "office", "closed loop"}},
		{[]string{"-scenario", "office", "-replay", "w.pvwl"}, []string{"-replay", "office", "closed loop"}},
		// Flags of one scenario, set for another.
		{[]string{"-scenario", "hall", "-sensors", "64"}, []string{"-sensors", "-scenario scale", "running hall"}},
		{[]string{"-scenario", "hospital", "-doors", "3"}, []string{"-doors", "-scenario hall", "running hospital"}},
		{[]string{"-scenario", "habitat", "-alarm", "ward"}, []string{"-alarm", "running habitat"}},
		{[]string{"-scenario", "proximity", "-modality", "possibly"}, []string{"-modality", "running proximity"}},
		{[]string{"-scenario", "office", "-shards", "2"}, []string{"-shards", "running office"}},
		{[]string{"-workload", "spec.txt", "-scenario", "hall"}, []string{"-workload replaces -scenario", "hall"}},
		{[]string{"-workload", "spec.txt", "-initial", "3"}, []string{"-initial", "running spec"}},
		{[]string{"-scenario", "bogus"}, []string{`unknown scenario "bogus"`}},
		// A ramp the horizon does not bound: one arrival per visitor.
		{[]string{"-scenario", "hall", "-initial", "10000000000"}, []string{"-initial", "1000000"}},
	} {
		code, out, errb := pervasim(tc.args...)
		if code != 2 || out != "" {
			t.Errorf("%v: exit %d, stdout %q; want 2 and no report", tc.args, code, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(errb, w) {
				t.Errorf("%v: stderr %q lacks %q", tc.args, errb, w)
			}
		}
	}
}

// TestEpsilonReachesBuilderScenarios: -epsilon sets the physical clocks'
// skew bound on every builder-wired scenario, so a bound far past the
// delay bound changes the report.
func TestEpsilonReachesBuilderScenarios(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "hall"},
		{"-scenario", "hospital", "-horizon", "5m"},
		{"-scenario", "habitat"},
		{"-scenario", "proximity"},
	} {
		report := func(eps string) string {
			code, out, errb := pervasim(append(args, "-kind", "physical", "-epsilon", eps)...)
			if code != 0 {
				t.Fatalf("%v at ε = %s: exit %d: %s", args, eps, code, errb)
			}
			return out
		}
		if tight := report("1us"); tight == report("30s") {
			t.Errorf("%v: ε = 1µs and ε = 30s print the same report:\n%s", args, tight)
		}
	}
}

// TestRecordReplaySameReport: a replay of a recorded workload prints the
// recording run's report, on every scenario that has a workload.
func TestRecordReplaySameReport(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.txt")
	if err := os.WriteFile(spec, []byte(`seed 3
horizon 20s
predicate sum(p) >= 2
generator toggler objs=0-3 attr=p meanhigh=800ms meanlow=1200ms
generator walk obj=4 w=10 h=10 speed=2 tick=500ms
`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-scenario", "hall", "-horizon", "30s", "-initial", "20", "-capacity", "22"},
		{"-scenario", "hospital", "-horizon", "1m", "-alarm", "ward"},
		{"-scenario", "habitat", "-horizon", "20m"},
		{"-scenario", "proximity", "-horizon", "5m"},
		{"-workload", spec},
		{"-scenario", "scale", "-sensors", "64", "-horizon", "1s"},
	} {
		trace := filepath.Join(dir, filepath.Base(args[1])+".pvwl")
		code, rec, errb := pervasim(append(args, "-record", trace)...)
		if code != 0 {
			t.Fatalf("%v -record: exit %d: %s", args, code, errb)
		}
		recorded, tail, ok := strings.Cut(rec, "workload: ")
		if !ok || !strings.Contains(tail, " events recorded to ") || strings.HasPrefix(tail, "0 ") {
			t.Fatalf("%v -record: no events recorded:\n%s", args, rec)
		}
		code, rep, errb := pervasim(append(args, "-replay", trace)...)
		if code != 0 {
			t.Fatalf("%v -replay: exit %d: %s", args, code, errb)
		}
		if rep != recorded {
			t.Errorf("%v: replay report differs from the recording run's:\n%s\nvs\n%s", args, rep, recorded)
		}
	}
}

// TestTraceOnEveryBuilderScenario: -trace writes the event trace of any
// builder-wired scenario, sized to its fleet.
func TestTraceOnEveryBuilderScenario(t *testing.T) {
	dir := t.TempDir()
	for _, scen := range []string{"hall", "hospital", "habitat", "proximity"} {
		path := filepath.Join(dir, scen+".jsonl")
		code, out, errb := pervasim("-scenario", scen, "-horizon", "30s", "-trace", path)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", scen, code, errb)
		}
		if !strings.Contains(out, "records written to "+path) {
			t.Errorf("%s: no trace line in\n%s", scen, out)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: trace file: %v", scen, err)
		}
	}
}

// TestReplayRefusesObjectsOutsideTheFleet: a replayed trace sizes the
// fleet by the largest object it names, so an object past a spec's objs=
// bound (builder-wired scenarios) or at or past -sensors (scale) exits 2
// with one line naming it, before anything is allocated for it.
func TestReplayRefusesObjectsOutsideTheFleet(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		obj  int
		args []string
		want string
	}{
		{1_000_000_000_000, []string{"-scenario", "hall"}, "trace names object 1000000000000, outside [0, 2147483647)"},
		{64, []string{"-scenario", "scale", "-sensors", "64"}, "trace names object 64, outside [0, 64)"},
	} {
		path := filepath.Join(dir, "hostile.pvwl")
		tr := workload.Trace{Horizon: sim.Second, Events: []workload.Event{{At: 1, Obj: tc.obj, Attr: "p", Val: 1}}}
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		code, out, errb := pervasim(append(tc.args, "-replay", path)...)
		if code != 2 || out != "" || !strings.Contains(errb, tc.want) || strings.Count(errb, "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, no report and one line naming %q", tc.args, code, out, errb, tc.want)
		}
	}
}

// TestFaultsReachBuilderScenarios: a -faults plan travels in the builder's
// run config to the harness. A crash/recover plan on hall changes what the
// network carries and adds the report's faults line; a plan naming a
// process outside the fleet, whose size the builder takes from the
// workload, exits 2 with the range check's message and no report.
func TestFaultsReachBuilderScenarios(t *testing.T) {
	base := []string{"-scenario", "hall", "-horizon", "60s", "-initial", "190"}
	network := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "network:") {
				return line
			}
		}
		return ""
	}
	code, clean, errb := pervasim(base...)
	if code != 0 {
		t.Fatalf("clean run: exit %d: %s", code, errb)
	}
	const plan = "crash(1,10s);recover(1,25s)"
	code, faulted, errb := pervasim(append(base, "-faults", plan)...)
	if code != 0 {
		t.Fatalf("faulted run: exit %d: %s", code, errb)
	}
	if !strings.Contains(faulted, `faults: plan "`+plan+`"`) {
		t.Errorf("faulted report lacks the plan line:\n%s", faulted)
	}
	if network(clean) == "" || network(clean) == network(faulted) {
		t.Errorf("the plan did not reach the run: %q with it, %q without", network(faulted), network(clean))
	}
	code, out, errb := pervasim(append(base, "-faults", "crash(9,1s)")...)
	if want := "-faults: fault plan event targets process 9; crash/recover is limited to sensors 0..3"; code != 2 || out != "" || !strings.Contains(errb, want) {
		t.Errorf("out-of-range plan: exit %d, stdout %q, stderr %q; want 2, no report, %q", code, out, errb, want)
	}
}
