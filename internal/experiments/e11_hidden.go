package experiments

import (
	"fmt"

	"pervasive/internal/clock"
	"pervasive/internal/core"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/world"
)

// E11HiddenChannels reproduces §4.1's central argument: the network plane
// cannot track world-plane causality because it cannot observe the covert
// channels of ⟨O,C⟩. World events are chained through covert rules with a
// configurable delay d; the network plane stamps every sensed event with
// strobe vector clocks. A causal pair (cause → effect) is "recovered" when
// the network-plane stamps order it; this happens only when the cause's
// strobe reaches the effect's sensor before the effect fires — i.e. only
// when d exceeds the network delay, and then only by the accident of
// strobe timing, not by semantics.
func E11HiddenChannels(cfg RunConfig) *Table {
	const delta = 200 * sim.Millisecond
	t := &Table{
		ID:    "E11",
		Title: "world-plane causal pairs recovered by network-plane clocks (Δ=200ms)",
		Claim: "\"presently, technology does not allow tracking of the hidden channels and " +
			"causality chains in the general case … we cannot always determine concurrency " +
			"among world plane events\" (§4.1)",
		Header: []string{"covert delay", "delay/Δ", "causal pairs", "recovered",
			"fraction", "inverted"},
	}
	ratios := []float64{0.1, 0.5, 1, 2, 10}
	if cfg.Quick {
		ratios = []float64{0.1, 1, 10}
	}
	seeds := cfg.pick(5, 2)

	perRun := sweep(cfg, ratios, seeds, func(rv float64, s uint64) [3]int64 {
		d := sim.Duration(rv * float64(delta))
		p, r, inv := hiddenChannelRun(cfg.Seed+s, delta, d,
			sim.Time(cfg.pick(60, 20))*sim.Second)
		return [3]int64{p, r, inv}
	})
	for ri, rv := range ratios {
		d := sim.Duration(rv * float64(delta))
		var pairs, recovered, inverted int64
		for _, c := range perRun[ri] {
			pairs += c[0]
			recovered += c[1]
			inverted += c[2]
		}
		t.AddRow(d, fmt.Sprintf("%.1f", rv), pairs, recovered,
			ratio(recovered, pairs), inverted)
	}
	t.Notes = append(t.Notes,
		"recovered: strobe stamps order cause before effect; inverted: stamps order effect before cause (never happens — strobes cannot travel back in time); the remainder are seen as concurrent",
		"expected shape: fraction ≈ 0 for covert delays ≪ Δ, rising toward 1 only when the world is slower than the network — and even then the order is accidental, not semantic (§4.2)")
	return t
}

// hiddenChannelRun builds a 4-sensor world with a covert causal chain and
// returns (causal pairs, recovered, inverted).
func hiddenChannelRun(seed uint64, delta, covertDelay sim.Duration, horizon sim.Time) (pairs, recovered, inverted int64) {
	const n = 4
	h := core.NewHarness(core.HarnessConfig{
		Seed: seed, N: n, Kind: core.VectorStrobe,
		Delay:    sim.NewDeltaBounded(delta),
		Pred:     predicate.MustParse("sum(v) >= 0"), // detection irrelevant here
		Modality: predicate.Instantaneously,
		Horizon:  horizon, LogStamps: true,
	})
	objs := make([]int, n)
	for i := 0; i < n; i++ {
		objs[i] = h.World.AddObject(fmt.Sprintf("obj-%d", i), nil)
		h.Bind(i, objs[i], "v", "v")
	}
	// Spontaneous activity at object 0 drives covert chains around the
	// ring: obj0 → obj1 → obj2 → obj3.
	world.RandomWalk{Obj: objs[0], Attr: "v", Step: 1,
		MeanGap: 2 * sim.Second}.Install(h.World, horizon)
	for i := 0; i < n-1; i++ {
		h.World.AddCovertRule(world.CovertRule{
			SrcObj: objs[i], SrcAttr: "v",
			DstObj: objs[i+1], DstAttr: "v",
			Prob:  0.8,
			Delay: stats.Constant{V: float64(covertDelay)},
		})
	}
	h.Run()

	// Map each world event to its sensor stamp: object i's k-th event is
	// sensor i's k-th sense event.
	log := h.World.Log()
	perObj := make([]int, n)
	stampOf := make([]clock.Vector, len(log))
	for _, ev := range log {
		i := ev.Object
		k := perObj[i]
		perObj[i]++
		if stamps, _ := h.Sensors[i].StampLog(); k < len(stamps) {
			stampOf[ev.Seq] = stamps[k]
		}
	}
	for _, pair := range world.CausalPairs(log, false) {
		cs, es := stampOf[pair[0]], stampOf[pair[1]]
		if cs == nil || es == nil {
			continue
		}
		pairs++
		switch cs.Compare(es) {
		case clock.Before:
			recovered++
		case clock.After:
			inverted++
		}
	}
	return pairs, recovered, inverted
}
