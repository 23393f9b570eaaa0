package core

import (
	"math"
	"reflect"
	"testing"

	"pervasive/internal/network"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
	"pervasive/internal/world"
)

// TestInPlacePumpMatchesPartitionedPumps holds the in-place fleet pump —
// every shard walking the one canonical stream and firing its own range —
// to the reference it replaced: the stream partitioned by the shard map,
// remapped to shard-local objects, and installed per shard as a private
// copy. At every shard count both must fire the same sub-stream in the same
// order: equal world logs, equal executed counts, and the same run. One
// stream carries a second attribute the sensors do not sense.
func TestInPlacePumpMatchesPartitionedPumps(t *testing.T) {
	const n = 24
	p := workload.TogglerFleet{Seed: 7, N: n, Attr: "p",
		MeanHigh: 300 * sim.Millisecond, MeanLow: 500 * sim.Millisecond}
	q := workload.TogglerFleet{Seed: 8, N: n, Attr: "q",
		MeanHigh: 200 * sim.Millisecond, MeanLow: 200 * sim.Millisecond}
	for name, src := range map[string]workload.Source{"p": p, "p+q": workload.Combine(p, q)} {
		evs := src.Events(diffConfig(1, 1).Horizon)
		for _, shards := range []int{1, 2, 4, 7} {
			label := name + "/S=" + itoa(shards)
			cfg := diffConfig(shards, 1)
			cfg.Workload = workload.EventSource(evs)
			got := NewShardedHarness(cfg)
			if &got.Events[0] != &evs[0] {
				t.Fatalf("%s: the harness copied its workload", label)
			}

			cfg.Workload = workload.EventSource(nil)
			want := NewShardedHarness(cfg)
			smap := network.ShardMap{Procs: n + 1, Shards: shards}
			parts := make([][]workload.Event, shards)
			for _, ev := range evs {
				k := smap.Of(ev.Obj)
				ev.Obj -= want.objBase[k]
				parts[k] = append(parts[k], ev)
			}
			for k, part := range parts {
				workload.Install(want.Sh.Engine(k), want.Worlds[k], part)
			}

			logs := func(h *ShardedHarness) [][]world.Event {
				out := make([][]world.Event, len(h.Worlds))
				for k, w := range h.Worlds {
					out[k] = w.Log()
				}
				return out
			}
			for _, h := range []*ShardedHarness{got, want} {
				for _, w := range h.Worlds {
					w.LogBelow(math.MaxInt) // log every object, not just the pilot
				}
			}
			gotRes, wantRes := got.Run(), want.Run()
			if !reflect.DeepEqual(logs(got), logs(want)) {
				t.Errorf("%s: world logs diverge from the partitioned pumps'", label)
			}
			total := 0
			for _, l := range logs(got) {
				total += len(l)
			}
			if total != len(evs) {
				t.Errorf("%s: worlds logged %d events, the stream holds %d", label, total, len(evs))
			}
			if g, w := got.Sh.ExecutedTotal(), want.Sh.ExecutedTotal(); g != w {
				t.Errorf("%s: sim.executed %d, partitioned pumps %d", label, g, w)
			}
			assertSameRun(t, label,
				diffRun{res: wantRes, counters: want.CounterLines(), trace: want.mergedTrace().Records},
				diffRun{res: gotRes, counters: got.CounterLines(), trace: got.mergedTrace().Records})
		}
	}
}
