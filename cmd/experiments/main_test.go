package main

import (
	"strings"
	"testing"

	"pervasive/internal/experiments"
	"pervasive/internal/faults"
)

// A -faults plan is checked against the smallest fleet the selected
// experiments install it into, before any experiment runs: a process that
// fleet lacks is a usage error, not a panic inside core.ScheduleFaults.
func TestCheckFaults(t *testing.T) {
	cases := []struct {
		run, plan string
		want      string // error substring; "" for none
	}{
		{"E1", "crash(99,1s)", "fault plan event targets process 99; crash/recover is limited to sensors 0..5"},
		{"E1", "crash(5,1s);recover(5,2s)", ""},
		{"E1", "partition(0.1|6,1s,2s)", ""}, // the checker of a 6-sensor fleet
		{"E1", "partition(0.1|7,1s,2s)", "partitions are limited to 0..6"},
		{"E1,E8", "crash(3,1s)", "limited to sensors 0..2"},
		{"E14", "crash(63,1s)", ""},
		{"E14", "crash(64,1s)", "limited to sensors 0..63"},
		{"E15", "crash(300,1s)", "limited to sensors 0..255"},
		{"A3", "crash(9,1s)", ""},
		{"E13", "crash(99,1s)", ""}, // sweeps its own plans
		{"E2,E9,E13,A6", "crash(99,1s)", ""},
		{"E13,E12", "crash(3,1s)", "limited to sensors 0..2"},
		{"E1", "", ""},
	}
	for _, c := range cases {
		var selected []experiments.Experiment
		for _, id := range strings.Split(c.run, ",") {
			e, ok := experiments.ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			selected = append(selected, e)
		}
		var plan *faults.Plan
		if c.plan != "" {
			var err error
			if plan, err = faults.Parse(c.plan); err != nil {
				t.Fatalf("%s: %v", c.plan, err)
			}
		}
		err := checkFaults(plan, selected)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("-run %s -faults %q: unexpected error %v", c.run, c.plan, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("-run %s -faults %q: error %v, want one containing %q", c.run, c.plan, err, c.want)
		}
	}
}
