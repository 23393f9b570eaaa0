package experiments

import (
	"fmt"
	"strings"
	"time"

	"pervasive/internal/clock"
	"pervasive/internal/core"
	"pervasive/internal/runner"
	"pervasive/internal/sim"
)

// E14ScaleSweep measures the spatially-sharded engine across fleet size ×
// shard count: wall-clock (behind RunConfig.Timing), resident clock-state
// bytes, detection recall on the pilot predicate, epochs and cross-shard
// traffic. Every (p, shards) cell runs the identical seeded scenario; the
// "same" column checks the cell's full counter digest against the p's S=1
// baseline, so the table doubles as a determinism regression at scale.
// All reported columns are derived from simulation state, never from the
// host clock, so the rendered table is byte-identical at any Parallelism
// and on any machine (with Timing off).
func E14ScaleSweep(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E14",
		Title: "sharded engine at scale: fleet size × shard count",
		Claim: "a single simulated deployment scales to 10⁴+ sensors when the kernel " +
			"shards spatially under conservative lookahead and per-sensor clock state " +
			"is sparse — with output byte-identical at every shard count (§2.2's " +
			"large-p regime made tractable)",
		Header: []string{"p", "shards", "wall ms", "clock KB", "recall", "epochs", "cross", "same"},
	}
	ps := []int{64, 256, 1024, 4096}
	shardCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		ps = []int{64, 256}
		shardCounts = []int{1, 2, 4}
	}
	horizon := sim.Time(cfg.pick(2000, 600)) * sim.Millisecond

	type job struct{ p, shards int }
	var jobs []job
	for _, p := range ps {
		for _, s := range shardCounts {
			jobs = append(jobs, job{p, s})
		}
	}
	type out struct {
		res    core.ShardedResults
		digest string
		wallMs float64
	}
	results := runner.Map(cfg.Parallelism, len(jobs), func(i int) out {
		j := jobs[i]
		h := core.NewShardedHarness(core.ShardedConfig{
			Seed: cfg.Seed, N: j.p, Shards: j.shards,
			Delay: sim.NewDeltaBounded(5 * sim.Millisecond),
			// Long-high dwells keep the pilot majority reachable, so the
			// recall column measures detection, not workload rarity.
			MeanHigh: 1200 * sim.Millisecond, MeanLow: 400 * sim.Millisecond,
			Horizon: horizon,
			Faults:  cfg.Faults,
		})
		start := time.Now() //lint:allow determinism(wall-clock feeds the Timing-gated column only, never the byte-compared cells)
		res := h.Run()
		wall := time.Since(start) //lint:allow determinism(wall-clock feeds the Timing-gated column only, never the byte-compared cells)
		return out{
			res:    res,
			digest: strings.Join(h.CounterLines(), "\n"),
			wallMs: float64(wall) / float64(time.Millisecond),
		}
	})

	ri := 0
	for range ps {
		var baseline string
		for _, s := range shardCounts {
			o := results[ri]
			j := jobs[ri]
			ri++
			if s == shardCounts[0] {
				baseline = o.digest
			}
			same := "yes"
			if o.digest != baseline {
				same = "NO"
			}
			wall := "-"
			if cfg.Timing {
				wall = fmt.Sprintf("%.1f", o.wallMs)
			}
			recall := ratio(o.res.Confusion.TP, o.res.Confusion.TP+o.res.Confusion.FN)
			t.AddRow(j.p, j.shards, wall,
				fmt.Sprintf("%.1f", float64(o.res.ClockBytes)/1024),
				recall, o.res.Epochs, o.res.CrossSent, same)
		}
	}
	t.Notes = append(t.Notes,
		"scored predicate is the pilot neighborhood (8 sensors, majority high); the rest of the fleet carries full strobe/clock load",
		fmt.Sprintf("clock state is sparse above %d procs: resident bytes grow with active peers, not with p", clock.DenseSparseCutoff),
		"'same' compares the cell's full counter digest (net, checker, engine, faults) to the S=1 baseline",
		"wall-clock column needs -timing (kept out of byte-compared tables); cmd/bench measures the p=65536 runs (fleet-wide, fleet-wide-par: wall_s, live_heap_mb, clock.state_bytes)")
	return t
}
