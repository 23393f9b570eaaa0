// Secure banking (paper §3.1.1.a.ii and §6, citing [22]): "a biometric
// key is presented remotely after a password is entered across the
// network." Two sensors — a password terminal and a biometric reader —
// feed one strobe stream; a MultiChecker detects each predicate's
// occurrences; the relative timing specification
//
//	password BEFORE biometric, by at most 30 s
//
// separates legitimate authentications from biometric presentations with
// no preceding password (raised as alarms). This is the paper's example
// of a distributed application where the world-plane communication (the
// user walking from terminal to reader) IS trackable by the network
// plane, making timing relations between detected intervals a natural
// specification tool.
package main

import (
	"fmt"

	"pervasive/internal/core"
	"pervasive/internal/network"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/timing"
	"pervasive/internal/world"
)

func main() {
	const (
		horizon = 10 * sim.Minute
		delta   = 100 * sim.Millisecond
	)
	eng := sim.NewEngine(2026)
	w := world.New(eng)
	nt := network.New(eng, network.FullMesh{Nodes: 3}, sim.NewDeltaBounded(delta))

	terminal := w.AddObject("password-terminal", nil)
	reader := w.AddObject("biometric-reader", nil)

	sensors := core.NewSensors(nt, core.SensorConfig{
		N: 2, Kind: core.VectorStrobe, CheckerIdx: 2,
	}, func(int) core.Transport { return nt })
	sensors[0].Bind(w, terminal, "entered", "pw")
	sensors[1].Bind(w, reader, "presented", "bio")

	checker := core.NewMultiChecker(2, map[string]predicate.Cond{
		"pw":  predicate.MustParse("pw@0 == 1"),
		"bio": predicate.MustParse("bio@1 == 1"),
	}, true)
	checker.Register(nt, 2)

	// World-plane activity. Legitimate sessions: a password entry, then
	// the user walks to the reader (5–15 s) and presents the biometric.
	// Attacks: biometric presentations with no preceding password.
	r := eng.RNG().Fork()
	var legit, attacks int
	pulse := func(obj int, attr string, at sim.Time) {
		eng.At(at, func(sim.Time) { w.Set(obj, attr, 1) })
		eng.At(at+2*sim.Second, func(sim.Time) { w.Set(obj, attr, 0) })
	}
	world.Repeat(eng, r, stats.Exponential{MeanV: float64(40 * sim.Second)},
		0, horizon-30*sim.Second, func(now sim.Time) {
			pulse(terminal, "entered", now)
			walk := 5*sim.Second + sim.Duration(r.Int63n(int64(10*sim.Second)))
			pulse(reader, "presented", now+walk)
			legit++
		})
	world.Repeat(eng, r, stats.Exponential{MeanV: float64(150 * sim.Second)},
		17*sim.Second, horizon-5*sim.Second, func(now sim.Time) {
			pulse(reader, "presented", now)
			attacks++
		})

	eng.Run(horizon)
	eng.RunAll()
	checker.Finish(horizon)

	spec := timing.Spec{Rel: timing.XBeforeY, MaxGap: 30 * sim.Second}
	matcher := timing.Matcher{Spec: spec}
	pw := checker.Spans("pw")
	bio := checker.Spans("bio")
	auth := matcher.PairsOneToOne(pw, bio)
	alarms := matcher.UnmatchedYOneToOne(pw, bio)

	fmt.Println("secure banking: spec =", spec)
	fmt.Printf("world plane: %d legitimate sessions, %d attacks\n", legit, attacks)
	fmt.Printf("detected: %d password entries, %d biometric presentations\n",
		len(pw), len(bio))
	var gap sim.Duration
	for _, m := range auth {
		gap += bio[m.YIdx].Lo - pw[m.XIdx].Hi
	}
	if len(auth) > 0 {
		gap /= sim.Duration(len(auth))
	}
	fmt.Printf("authenticated (password before biometric ≤ 30s): %d, mean gap %v\n", len(auth), gap)
	fmt.Printf("ALARMS (biometric with no preceding password):   %d\n", len(alarms))
	for _, yi := range alarms {
		fmt.Printf("  suspicious presentation at %v\n", bio[yi].Lo)
	}
	if len(auth) == legit && len(alarms) == attacks {
		fmt.Println("verdict: every session authenticated, every attack flagged ✓")
	} else {
		fmt.Println("verdict: counts differ from ground truth (races near the 30s window edge)")
	}
}
