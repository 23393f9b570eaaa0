package experiments

import (
	"fmt"

	"pervasive/internal/clocksync"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// E9ClockSyncCost quantifies §3.3's limitations of the physically
// synchronized clock option: the service achieves ε of µs–ms but "does not
// come for free" (messages/energy), leaves a residual skew, and reopens
// with drift — which is what makes strobe clocks attractive when the event
// rate is low.
func E9ClockSyncCost(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E9",
		Title: "physical clock synchronization: achieved ε vs message cost",
		Claim: "\"This service does not come for free to the application; the lower layers " +
			"pay the cost … skews of the order of microsecs to millisecs\" (§3.2.1.a(ii), §3.3, [35])",
		Header: []string{"protocol", "n", "ε now", "mean|skew|", "ε after 60s drift",
			"messages", "bytes"},
	}
	sizes := []int{16, 64}
	if cfg.Quick {
		sizes = []int{16}
	}
	seeds := cfg.pick(10, 3)

	protos := []struct {
		name string
		run  func(clocksync.Config) clocksync.Result
	}{
		{"unsynced", clocksync.Unsynced},
		{"RBS", clocksync.RBS},
		{"TPSN", clocksync.TPSN},
		{"on-demand", clocksync.OnDemand},
	}
	type point struct{ n, proto int }
	var points []point
	for _, n := range sizes {
		for p := range protos {
			points = append(points, point{n, p})
		}
	}
	results := sweep(cfg, points, seeds, func(pt point, s uint64) clocksync.Result {
		return protos[pt.proto].run(clocksync.Config{
			N: pt.n, Seed: cfg.Seed + s,
			MaxOffset: 100 * sim.Millisecond,
			DriftPPM:  50,
			JitterStd: 20 * sim.Microsecond,
			MinDelay:  sim.Millisecond, MaxDelay: 3 * sim.Millisecond,
			Rounds: 8,
		})
	})
	for i, pt := range points {
		var eps, mean, after stats.Online
		var msgs, bytes int64
		for _, res := range results[i] {
			eps.Add(float64(res.Eps))
			mean.Add(res.MeanAbsErr)
			after.Add(float64(res.EpsAfter))
			msgs += res.Messages
			bytes += res.Bytes
		}
		t.AddRow(protos[pt.proto].name, pt.n,
			sim.Duration(eps.Mean()).String(),
			fmt.Sprintf("%.0fµs", mean.Mean()),
			sim.Duration(after.Mean()).String(),
			msgs/int64(seeds), bytes/int64(seeds))
	}
	t.Notes = append(t.Notes,
		"hardware clocks: offsets ≤100ms, drift ±50ppm, 20µs receive jitter, 1–3ms links",
		"expected shape: ε(RBS) < ε(TPSN) ≪ ε(unsynced); all protocols cost messages; drift reopens ε within one validity window")
	return t
}
