package workload

import (
	"sort"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// TestSortMatchesSliceStable holds Sort to the implementation it replaced:
// sort.SliceStable under the canonical order. The drawn streams are dense
// in cross-object ties (few distinct times) and in repeated
// (At, Obj, Attr) keys, which only the value tells apart — a sort that
// were not stable, or that ordered any key differently, would move one.
func TestSortMatchesSliceStable(t *testing.T) {
	attrs := []string{"p", "q", "occupancy"}
	r := stats.NewRNG(23)
	ties, repeats := 0, 0
	for round := 0; round < 200; round++ {
		evs := make([]Event, 1+r.Intn(300))
		for i := range evs {
			evs[i] = Event{At: sim.Time(r.Intn(12)), Obj: r.Intn(6), Attr: attrs[r.Intn(len(attrs))], Val: float64(i)}
		}
		want := append([]Event(nil), evs...)
		sort.SliceStable(want, func(i, j int) bool { return compare(want[i], want[j]) < 0 })
		Sort(evs)
		for i := range evs {
			if evs[i] != want[i] {
				t.Fatalf("round %d: position %d holds %+v, sort.SliceStable put %+v there", round, i, evs[i], want[i])
			}
			if i == 0 || evs[i].At != evs[i-1].At {
				continue
			}
			if compare(evs[i], evs[i-1]) == 0 {
				repeats++
			} else if evs[i].Obj != evs[i-1].Obj {
				ties++
			}
		}
	}
	if ties < 1000 || repeats < 1000 {
		t.Errorf("the streams held %d cross-object ties and %d repeated keys; want at least 1000 of each", ties, repeats)
	}
}

// TestGeneratorDigestsPinned: every generator's stream at its fixed seed,
// as it stood before Sort changed implementation.
func TestGeneratorDigestsPinned(t *testing.T) {
	pinned := map[string]string{
		"admissions": "7cca182a47c5327f",
		"cohort":     "7fbb70059e9b2a18",
		"diurnal":    "bafaf5005332fc29",
		"hall":       "4be642349c2cfba7",
		"pareto":     "375a91cb87a09c7e",
		"toggler":    "90e6e4c76395231e",
		"walk":       "26a9e7746f41c913",
	}
	gens := allGenerators()
	if len(gens) != len(pinned) {
		t.Fatalf("%d generators, %d pinned digests", len(gens), len(pinned))
	}
	for name, g := range gens {
		if got := Digest(g.Events(2 * sim.Second))[:16]; got != pinned[name] {
			t.Errorf("%s: digest %s, pinned %s", name, got, pinned[name])
		}
	}
}
