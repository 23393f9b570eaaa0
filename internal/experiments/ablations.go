package experiments

import (
	"fmt"

	"pervasive/internal/clock"
	"pervasive/internal/core"
	"pervasive/internal/mac"
	"pervasive/internal/network"
	"pervasive/internal/runner"
	"pervasive/internal/scenario"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/workload"
)

// Ablations are additional experiments probing this implementation's own
// design choices (they extend, rather than reproduce, the paper). Run via
// `cmd/experiments -ablations`.
var Ablations = []Experiment{
	{"A1", "borderline-bin policy: positive vs negative", A1BorderlinePolicy, 0},
	{"A2", "race criterion: four-state vs naive concurrency flagging", A2RaceCriterion, 5},
	{"A3", "broadcast strategy: direct vs flooding on sparse overlays", A3BroadcastStrategy, 10},
	{"A4", "differential strobe compression (Singhal–Kshemkalyani)", A4DiffCompression, 0},
	{"A5", "physical checker reorder slack", A5PhysicalSlack, 4},
	{"A6", "duty-cycle timer synchronization (§5)", A6DutyCycle, 0},
}

// AllWithAblations returns E1–E12 followed by A1–A6.
func AllWithAblations() []Experiment {
	return append(append([]Experiment(nil), All...), Ablations...)
}

// A1BorderlinePolicy quantifies §5's "the application can treat entries in
// the borderline bin as positives or negatives. To err on the safe side,
// such entries can be treated as positives": the positive policy maximizes
// recall (no missed overcrowding), the negative policy maximizes
// precision (no spurious lockouts).
func A1BorderlinePolicy(cfg RunConfig) *Table {
	t := &Table{
		ID:     "A1",
		Title:  "treating borderline detections as positive vs negative (exhibition hall)",
		Claim:  "§5: borderline entries can be treated as positives (safe side) or negatives",
		Header: []string{"policy", "recall", "precision", "FP", "FN"},
	}
	seeds := cfg.pick(8, 3)
	type polPair struct{ pos, neg stats.Confusion }
	pairs := runner.Map(cfg.Parallelism, seeds, func(s int) polPair {
		hl := scenario.NewHall(scenario.HallConfig{
			Run: scenario.Run{Seed: cfg.Seed + uint64(s), Delay: sim.NewDeltaBounded(250 * sim.Millisecond),
				Horizon: sim.Time(cfg.pick(120, 40)) * sim.Second},
			Doors: 4, Capacity: 60, InitialOccupancy: 57,
			MeanArrival: 150 * sim.Millisecond,
			MeanStay:    10 * sim.Second,
		})
		res := hl.Run()

		// Negative policy: drop borderline occurrences, rescore.
		var strict []core.Occurrence
		for _, o := range res.Occurrences {
			if !o.Borderline {
				strict = append(strict, o)
			}
		}
		return polPair{
			pos: res.Confusion,
			neg: core.Score(strict, res.Truth, nil, hl.Harness.Tol(), res.Horizon),
		}
	})
	var pos, neg stats.Confusion
	for _, p := range pairs {
		pos.Add(p.pos)
		neg.Add(p.neg)
	}
	t.AddRow("borderline = positive", pos.Recall(), pos.Precision(), pos.FP, pos.FN)
	t.AddRow("borderline = negative", neg.Recall(), neg.Precision(), neg.FP, neg.FN)
	t.Notes = append(t.Notes,
		"expected shape: the positive policy has higher recall (safety), the negative policy higher precision")
	return t
}

// A2RaceCriterion compares the four-state race criterion (flag only
// order-sensitive races) against naive concurrency flagging (flag any flip
// with a concurrent neighbour stamp). The naive criterion floods the
// borderline bin, destroying the value of "definite" reports.
func A2RaceCriterion(cfg RunConfig) *Table {
	t := &Table{
		ID:    "A2",
		Title: "four-state race criterion vs naive concurrency flagging",
		Claim: "design choice: flag a flip only when the predicate's history depends on the race order",
		Header: []string{"criterion", "occurrences", "flagged", "flag-rate",
			"TP-flagged", "border-cov"},
	}
	seeds := cfg.pick(6, 2)
	type counts struct {
		conf         stats.Confusion
		occ, flagged int64
	}
	perSeed := sweep(cfg, []bool{false, true}, seeds, func(naive bool, s uint64) counts {
		pw := pulseWorkload{
			N: 5, K: 3,
			MeanHigh: 400 * sim.Millisecond, MeanLow: 600 * sim.Millisecond,
			Kind:    core.VectorStrobe,
			Delay:   sim.NewDeltaBounded(150 * sim.Millisecond),
			Horizon: sim.Time(cfg.pick(60, 20)) * sim.Second,
			Faults:  cfg.Faults,
		}
		h := pw.build(cfg.Seed + s)
		h.Checker.NaiveRace = naive
		res := h.Run()
		c := counts{conf: res.Confusion}
		for _, o := range res.Occurrences {
			c.occ++
			if o.Borderline {
				c.flagged++
			}
		}
		return c
	})
	for i, name := range []string{"four-state", "naive-concurrency"} {
		var agg stats.Confusion
		var occ, flagged int64
		for _, c := range perSeed[i] {
			agg.Add(c.conf)
			occ += c.occ
			flagged += c.flagged
		}
		// TP-flagged approximation: flagged minus the flagged errors.
		tpFlagged := max(flagged-agg.BorderlineFP, 0)
		t.AddRow(name, occ, flagged, ratio(flagged, occ), tpFlagged, agg.BorderlineCoverage())
	}
	t.Notes = append(t.Notes,
		"expected shape: similar borderline coverage of real errors, but the naive criterion flags far more correct detections (TP-flagged), diluting definite reports")
	return t
}

// A3BroadcastStrategy compares direct (one logical hop per receiver)
// System-wide_Broadcast against flooding over a sparse random-geometric
// overlay: flooding multiplies transmissions and stretches effective
// delay by the hop count, degrading detection at a fixed per-hop Δ.
func A3BroadcastStrategy(cfg RunConfig) *Table {
	t := &Table{
		ID:     "A3",
		Title:  "direct vs flooding System-wide_Broadcast (random geometric overlay)",
		Claim:  "implementation choice for §4.2's broadcasts on multi-hop topologies",
		Header: []string{"strategy", "link msgs", "bytes", "recall", "precision"},
	}
	seeds := cfg.pick(5, 2)
	floods := []bool{false, true}
	type netOutcome struct {
		conf        stats.Confusion
		msgs, bytes int64
	}
	outcomes := sweep(cfg, floods, seeds, func(flood bool, s uint64) netOutcome {
		n := 10
		// Sparse but connected overlay shared by both strategies.
		var topo network.Topology = network.RandomGeometric(
			stats.NewRNG(cfg.Seed+s), n+1, 0.45)
		if !network.IsConnectedGraph(topo) {
			topo = network.Ring{Nodes: n + 1}
		}
		pw := pulseWorkload{
			N: n, K: n/2 + 1,
			MeanHigh: 500 * sim.Millisecond, MeanLow: 700 * sim.Millisecond,
			Kind:    core.VectorStrobe,
			Delay:   sim.NewDeltaBounded(30 * sim.Millisecond), // per hop when flooding
			Horizon: sim.Time(cfg.pick(40, 15)) * sim.Second,
			Topo:    topo, Flood: flood,
			Faults: cfg.Faults,
		}
		res := pw.run(cfg.Seed + s)
		return netOutcome{conf: res.Confusion, msgs: res.Net.Sent, bytes: res.Net.Bytes}
	})
	for fi, flood := range floods {
		var agg stats.Confusion
		var msgs, bytes int64
		for _, o := range outcomes[fi] {
			agg.Add(o.conf)
			msgs += o.msgs
			bytes += o.bytes
		}
		name := "direct"
		if flood {
			name = "flooding"
		}
		t.AddRow(name, msgs, bytes, agg.Recall(), agg.Precision())
	}
	t.Notes = append(t.Notes,
		"expected shape: flooding multiplies link transmissions (duplicate suppression floor ≈ one per edge) and stretches effective delay by hop count, costing some accuracy at fixed per-hop Δ")
	return t
}

// A4DiffCompression measures the Singhal–Kshemkalyani differential strobe
// against full vectors across workload skews.
func A4DiffCompression(cfg RunConfig) *Table {
	t := &Table{
		ID:     "A4",
		Title:  "differential (sparse) strobe vectors vs full vectors",
		Claim:  "extension: SK compression applied to the strobe protocol",
		Header: []string{"workload", "n", "events", "full bytes", "diff bytes", "ratio"},
	}
	r := stats.NewRNG(cfg.Seed)
	const steps = 2000
	workloads := []struct {
		name string
		hot  float64 // probability the hot node fires
	}{
		{"uniform", 0}, {"hot-spot 50%", 0.5}, {"hot-spot 90%", 0.9},
	}
	sizes := []int{8, 32}
	// The source draws share one RNG stream across every (workload, n)
	// cell, so pre-draw each cell's src sequence sequentially in sweep
	// order; the strobe replays are then independent and fan out.
	srcSeqs := make([][]int, 0, len(workloads)*len(sizes))
	for _, wl := range workloads {
		for _, n := range sizes {
			srcs := make([]int, steps)
			for step := range srcs {
				src := r.Intn(n)
				if wl.hot > 0 && r.Bool(wl.hot) {
					src = 0
				}
				srcs[step] = src
			}
			srcSeqs = append(srcSeqs, srcs)
		}
	}
	type wire struct{ full, diff int64 }
	wires := runner.Map(cfg.Parallelism, len(srcSeqs), func(ci int) wire {
		n := sizes[ci%len(sizes)]
		diff := make([]*clock.SparseStrobeVector, n)
		for i := range diff {
			diff[i] = clock.NewSparseStrobeVector(i, n)
		}
		var w wire
		for _, src := range srcSeqs[ci] {
			ds := diff[src].Strobe()
			w.diff += int64(ds.WireBytes())
			w.full += int64(8 * n)
			for j := 0; j < n; j++ {
				if j != src {
					diff[j].OnStrobe(ds)
				}
			}
		}
		return w
	})
	ci := 0
	for _, wl := range workloads {
		for _, n := range sizes {
			w := wires[ci]
			ci++
			t.AddRow(wl.name, n, steps, w.full, w.diff,
				float64(w.diff)/float64(w.full))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: ratio ≪ 1 under skew (a hot sensor's consecutive strobes change few components); uniform workloads approach full size as n grows")
	return t
}

// A5PhysicalSlack sweeps the physical checker's reorder-buffer slack: a
// buffer smaller than the network delay spread lets reports replay out of
// timestamp order, trading latency for accuracy.
func A5PhysicalSlack(cfg RunConfig) *Table {
	t := &Table{
		ID:     "A5",
		Title:  "physical checker reorder-buffer slack vs accuracy",
		Claim:  "design choice: slack must cover Δ + ε for timestamp-order replay",
		Header: []string{"slack", "reordered", "recall", "precision"},
	}
	delta := 100 * sim.Millisecond
	slacks := []sim.Duration{sim.Millisecond, 10 * sim.Millisecond,
		50 * sim.Millisecond, 120 * sim.Millisecond, 300 * sim.Millisecond}
	if cfg.Quick {
		slacks = []sim.Duration{sim.Millisecond, 120 * sim.Millisecond}
	}
	seeds := cfg.pick(6, 2)
	type slackOutcome struct {
		conf      stats.Confusion
		reordered int64
	}
	outcomes := sweep(cfg, slacks, seeds, func(slack sim.Duration, s uint64) slackOutcome {
		pw := pulseWorkload{
			N: 4, K: 3,
			MeanHigh: 300 * sim.Millisecond, MeanLow: 400 * sim.Millisecond,
			Kind: core.PhysicalReport, Epsilon: sim.Millisecond,
			Delay:   sim.NewDeltaBounded(delta),
			Horizon: sim.Time(cfg.pick(60, 20)) * sim.Second,
		}
		h := core.NewHarness(core.HarnessConfig{
			Seed: cfg.Seed + s, N: pw.N, Kind: pw.Kind,
			Delay: pw.Delay, Pred: pw.pred(), Epsilon: pw.Epsilon,
			Slack: slack, Horizon: pw.Horizon, Faults: cfg.Faults,
		})
		for i := 0; i < pw.N; i++ {
			obj := h.World.AddObject(fmt.Sprintf("obj-%d", i), nil)
			h.Bind(i, obj, "p", "p")
			h.Install(workload.Toggler{Seed: h.World.RNG().Uint64(), Obj: obj, Attr: "p",
				MeanHigh: pw.MeanHigh, MeanLow: pw.MeanLow})
		}
		res := h.Run()
		return slackOutcome{conf: res.Confusion, reordered: h.PhysCk.Reordered}
	})
	for si, slack := range slacks {
		var agg stats.Confusion
		var reordered int64
		for _, o := range outcomes[si] {
			agg.Add(o.conf)
			reordered += o.reordered
		}
		t.AddRow(slack, reordered, agg.Recall(), agg.Precision())
	}
	t.Notes = append(t.Notes,
		"expected shape: reordering count falls to ~0 once slack exceeds the delay bound; accuracy rises with it")
	return t
}

// A6DutyCycle runs the §5 duty-cycle synchronization: free-running timers
// lose rendezvous under drift; the beacon protocol (send/receive events
// only) restores it at a bounded energy cost.
func A6DutyCycle(cfg RunConfig) *Table {
	t := &Table{
		ID:    "A6",
		Title: "duty-cycle timer synchronization via send/receive events (§5)",
		Claim: "\"synchronization of duty cycles … can be achieved using distributed timers " +
			"… via send and receive events\" (§5)",
		Header: []string{"mode", "drift", "overlap", "awake-frac", "beacons"},
	}
	horizon := sim.Time(cfg.pick(30, 8)) * sim.Minute
	type point struct {
		drift float64
		sync  bool
	}
	var points []point
	for _, drift := range []float64{0, 40, 80} {
		for _, syn := range []bool{false, true} {
			points = append(points, point{drift, syn})
		}
	}
	results := sweep(cfg, points, 1, func(pt point, _ uint64) mac.Result {
		return mac.Run(mac.Config{
			N: 6, Seed: cfg.Seed, Period: sim.Second,
			Window: 100 * sim.Millisecond, DriftPPM: pt.drift,
			Sync: pt.sync, ScanEvery: 16, Horizon: horizon,
		})
	})
	for i, pt := range points {
		res := results[i][0]
		mode := "free-running"
		if pt.sync {
			mode = "beacon-sync"
		}
		t.AddRow(mode, fmt.Sprintf("±%.0fppm", pt.drift),
			res.Overlap, res.AwakeFraction, res.Beacons)
	}
	t.Notes = append(t.Notes,
		"expected shape: overlap collapses with drift when free-running; beacon sync holds it near 1 at a small awake-fraction premium")
	return t
}
