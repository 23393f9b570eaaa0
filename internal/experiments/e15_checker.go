package experiments

import (
	"fmt"
	"strings"

	"pervasive/internal/core"
	"pervasive/internal/runner"
	"pervasive/internal/sim"
)

// E15CheckerTree sweeps the hierarchical checker tree across fleet size ×
// report volume × fan-out: detection recall on the pilot predicate, the
// upward sync channel's mean staleness (how long a report waits before
// its watermark crosses the tier boundary — the detection-latency cost
// batching buys throughput with), the coalesce rate (superseded values
// that never cross the wire), and the encoded sync traffic. The R=1 row
// of each (p, volume) group runs the flat checker and anchors the "same"
// column: every tree cell's full counter digest must be byte-identical
// to it, so the table doubles as the checker-tree determinism regression
// (detection itself rides the immediate delta channel; only watermark
// sync is batched, which is why recall is identical at every fan-out).
// All compared columns are derived from simulation state, never the host
// clock, so the rendered table is byte-identical at any Parallelism.
func E15CheckerTree(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E15",
		Title: "checker tree: fleet size × report volume × fan-out",
		Claim: "detection scales with the network when strobe reports aggregate through " +
			"regional checker nodes — batched, coalesced, delta-coded upward — with " +
			"detection output byte-identical to the flat §2.1 checker at every fan-out " +
			"(the centralized-checker wall of ROADMAP item 2 removed)",
		Header: []string{"p", "volume", "R", "reports", "recall", "sync lag ms", "coalesce%", "wire KB", "same"},
	}
	type vol struct {
		name     string
		hi, lo   sim.Duration
		skipBigP bool
	}
	vols := []vol{
		// steady is E14's workload balance; dense pushes several reports
		// per process into each 5ms flush window so coalescing is live.
		{"steady", 1200 * sim.Millisecond, 400 * sim.Millisecond, false},
		{"dense", 40 * sim.Millisecond, 40 * sim.Millisecond, true},
	}
	ps := []int{1024, 4096}
	fanouts := []int{1, 4, 16, 64}
	if cfg.Quick {
		ps = []int{256}
		fanouts = []int{1, 4, 16}
	}
	horizon := sim.Time(cfg.pick(2000, 600)) * sim.Millisecond

	type job struct {
		p, fanout int
		v         vol
	}
	var jobs []job
	for _, p := range ps {
		for _, v := range vols {
			if v.skipBigP && p > 1024 {
				continue // dense at p=4096 is volume, not insight
			}
			for _, r := range fanouts {
				jobs = append(jobs, job{p, r, v})
			}
		}
	}
	type out struct {
		res    core.ShardedResults
		digest string
		stat   *core.ShardedHarness
	}
	results := runner.Map(cfg.Parallelism, len(jobs), func(i int) out {
		j := jobs[i]
		h := core.NewShardedHarness(core.ShardedConfig{
			Seed: cfg.Seed, N: j.p, Shards: 4, Workers: 2,
			Delay:    sim.NewDeltaBounded(5 * sim.Millisecond),
			MeanHigh: j.v.hi, MeanLow: j.v.lo,
			Horizon:       horizon,
			CheckerFanout: j.fanout,
			Faults:        cfg.Faults,
		})
		res := h.Run()
		return out{res: res, digest: strings.Join(h.CounterLines(), "\n"), stat: h}
	})

	var baseline string
	for i, o := range results {
		j := jobs[i]
		if j.fanout == fanouts[0] {
			baseline = o.digest
		}
		same := "yes"
		if o.digest != baseline {
			same = "NO"
		}
		recall := ratio(o.res.Confusion.TP, o.res.Confusion.TP+o.res.Confusion.FN)
		reports, lag, coalesce, wire := "-", "-", "-", "-"
		if tree := o.stat.Tree; tree != nil {
			st := tree.Stat
			reports = fmt.Sprintf("%d", st.Applied)
			if st.SyncedProcs > 0 {
				lag = fmt.Sprintf("%.2f", (sim.Time(st.SyncLagTotal) / sim.Time(st.SyncedProcs)).Millis())
			}
			coalesce = fmt.Sprintf("%.1f", 100*float64(st.Coalesced)/float64(st.Applied))
			wire = fmt.Sprintf("%.1f", float64(st.WireBytes)/1024)
		} else {
			reports = fmt.Sprintf("%d", o.stat.Checker.Applied)
		}
		t.AddRow(j.p, j.v.name, j.fanout, reports, recall, lag, coalesce, wire, same)
	}
	t.Notes = append(t.Notes,
		"R=1 runs the flat checker (the differential oracle); 'same' compares each cell's full counter digest against it",
		"sync lag is the mean wait before a report's watermark crosses the tier boundary (simulated time, not wall) — the latency cost of batching, paid by the sync channel only, never by detection",
		"coalesce% is the share of applied reports whose pending sync value was superseded before flushing — the traffic batching saves at dense report volume",
		"cmd/bench measures root throughput as checker.drill_flat_report_ns vs checker.drill_tree_report_ns (flat O(p)-per-report aggregate evaluation vs the tree's O(1) incremental fold)")
	return t
}
