package workload

import (
	"strings"
	"testing"

	"pervasive/internal/sim"
)

const exampleSpec = `
# composed workload over 8 objects
seed 42
horizon 2s
objects 8
predicate sum(p) >= 3

generator toggler objs=0-3 attr=p meanhigh=80ms meanlow=120ms
generator diurnal obj=4 attr=p meangap=15ms amp=0.9 period=700ms harmonics=2 phase=0.3 width=10ms
generator pareto obj=5 attr=p burstgap=150ms xm=2 alpha=1.2 pulsegap=5ms width=4ms
generator cohort objs=6-7 attr=p meangap=60ms width=25ms rho=0.8 lag=10ms jitter=5ms
`

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec(exampleSpec)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if sp.Seed != 42 || sp.Horizon != 2*sim.Second || sp.Objects != 8 {
		t.Fatalf("header mismatch: %+v", sp)
	}
	if sp.Predicate != "sum(p) >= 3" {
		t.Fatalf("predicate: %q", sp.Predicate)
	}
	if len(sp.Gens) != 4 {
		t.Fatalf("generators: got %d want 4", len(sp.Gens))
	}
	if got := sp.MaxObject(); got != 7 {
		t.Fatalf("MaxObject: got %d want 7", got)
	}
	src, err := sp.Source()
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	evs := src.Events(sp.Horizon)
	if len(evs) == 0 {
		t.Fatal("spec workload produced no events")
	}
	for i := 1; i < len(evs); i++ {
		if compare(evs[i], evs[i-1]) < 0 {
			t.Fatalf("spec workload out of canonical order at %d", i)
		}
	}
	// Determinism: a reparse materializes the identical stream.
	sp2, _ := ParseSpec(exampleSpec)
	src2, _ := sp2.Source()
	if Digest(src2.Events(sp2.Horizon)) != Digest(evs) {
		t.Fatal("spec workload is not deterministic")
	}
	// Changing the spec seed changes every derived generator stream.
	sp3, _ := ParseSpec(strings.Replace(exampleSpec, "seed 42", "seed 43", 1))
	src3, _ := sp3.Source()
	if Digest(src3.Events(sp3.Horizon)) == Digest(evs) {
		t.Fatal("spec seed does not propagate to generators")
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := map[string]string{
		"no horizon":        "seed 1\ngenerator toggler objs=0-3\n",
		"no generators":     "horizon 1s\n",
		"unknown directive": "horizon 1s\nfoo bar\n",
		"unknown generator": "horizon 1s\ngenerator nosuch obj=0\n",
		"unknown argument":  "horizon 1s\ngenerator toggler objs=0-3 bogus=1\n",
		"bad duration":      "horizon 1s\ngenerator toggler objs=0-3 meanhigh=fast\n",
		"bad range":         "horizon 1s\ngenerator toggler objs=3-0\n",
		"bare argument":     "horizon 1s\ngenerator toggler objs\n",
	}
	for name, src := range cases {
		sp, err := ParseSpec(src)
		if err == nil {
			_, err = sp.Source()
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSpecGeneratorSeedOverride(t *testing.T) {
	base := "horizon 1s\ngenerator toggler objs=0-1 seed=7\n"
	spA, _ := ParseSpec("seed 1\n" + base)
	spB, _ := ParseSpec("seed 2\n" + base)
	sa, err := spA.Source()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := spB.Source()
	if err != nil {
		t.Fatal(err)
	}
	if Digest(sa.Events(sim.Second)) != Digest(sb.Events(sim.Second)) {
		t.Fatal("explicit generator seed should override the spec seed")
	}
}
