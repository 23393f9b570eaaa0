package obs

import (
	"fmt"
	"math"
	"strconv"

	"pervasive/internal/sim"
)

// CollectEngine registers a snapshot-time collector that mirrors the DES
// kernel's plain counters (events scheduled/executed, heap
// depth and its watermark) into r. The kernel's hot path stays free of
// atomics and registry lookups: values are read only when r.Snapshot()
// runs, which must happen on the engine's own goroutine (the DES is
// single-threaded by contract). A nil registry is a no-op.
func CollectEngine(r *Registry, e *sim.Engine) {
	if r == nil || e == nil {
		return
	}
	scheduled := r.Counter("sim.events.scheduled")
	executed := r.Counter("sim.events.executed")
	depth := r.Gauge("sim.heap.depth")
	r.RegisterCollector(func(*Registry) {
		scheduled.Store(int64(e.Scheduled))
		executed.Store(int64(e.Executed))
		depth.SetWithMax(int64(e.Pending()), int64(e.MaxHeapDepth))
	})
}

// CollectShards registers a snapshot-time collector for a multi-shard
// kernel's attribution and turns on its epoch timing: per shard the events
// it executed and the wall-clock microseconds it spent running epochs and
// waiting at their barriers for the other shards (sim.shard.K.events,
// .busy_us, .wait_us, K zero-padded to sort), and the imbalance Σ_epochs
// max / Σ_epochs mean of per-shard events, in thousandths
// (sim.shards.imbalance_permille). Values are read when r.Snapshot()
// runs, which must happen between runs. A nil registry, or a single
// shard, which runs no epochs, is a no-op, and the epoch loop then reads
// no wall clock.
func CollectShards(r *Registry, sh *sim.Shards) {
	if r == nil || sh == nil || sh.N() < 2 {
		return
	}
	sh.TimeEpochs()
	type row struct{ events, busy, wait *Counter }
	rows := make([]row, sh.N())
	width := len(strconv.Itoa(sh.N() - 1))
	for k := range rows {
		name := fmt.Sprintf("sim.shard.%0*d.", width, k)
		rows[k] = row{r.Counter(name + "events"), r.Counter(name + "busy_us"), r.Counter(name + "wait_us")}
	}
	imbalance := r.Gauge("sim.shards.imbalance_permille")
	r.RegisterCollector(func(*Registry) {
		for k, row := range rows {
			st := sh.Stat(k)
			row.events.Store(int64(st.Events))
			row.busy.Store(st.Busy.Microseconds())
			row.wait.Store(st.Wait.Microseconds())
		}
		imbalance.Set(int64(math.Round(sh.Imbalance() * 1000)))
	})
}
