package core

import (
	"testing"

	"pervasive/internal/network"
	"pervasive/internal/sim"
)

// BenchmarkShardedBroadcast is the cost of moving one strobe at fleet-wide's
// size, read at -cpu 1: a sense event at a sensor of a 256×256 grid (SVC1,
// one NeighborScope broadcast to its ≤ 4 neighbours plus the checker) and
// the deliveries, each an SVC2 merge into a sensor of the same slab. Sources
// jump across the grid, so every receiver is cold — the cache misses a real
// run pays per hop are in the figure. Deliveries drain every 1024 sense
// events, which keeps about as many copies in flight as fleet-wide does.
func BenchmarkShardedBroadcast(b *testing.B) {
	const side, n = 256, 256 * 256
	sh := sim.NewShards(1, 0, 1)
	sn := network.NewSharded(sh, network.Grid{Rows: side, Cols: side},
		sim.NewDeltaBounded(5*sim.Millisecond), network.ShardMap{Procs: n + 1, Shards: 1}, 1)
	sn.NeighborScope = true
	sn.AlwaysReach = []int{n}
	sensors := NewSensors(sn, SensorConfig{N: n, Kind: DiffVectorStrobe, CheckerIdx: n},
		func(int) (*sim.Engine, Transport) { return sh.Engine(0), sn.Part(0) })
	sn.Register(n, func(network.Message, sim.Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sensors[i*40503%n].onSense("p", float64(i&1)) // odd stride: every sensor, far apart
		if i%1024 == 1023 {
			sh.RunAll()
		}
	}
	sh.RunAll()
}
