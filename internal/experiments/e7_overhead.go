package experiments

import (
	"pervasive/internal/core"
	"pervasive/internal/sim"
)

// E7MessageOverhead reproduces the cost model of §4.2.2–4.2.3: a scalar
// strobe carries O(1) state while a vector strobe carries O(n); both
// protocols broadcast once per relevant event; the physical-clock design
// sends one direct report per event but requires the synchronization
// service (costed separately in E9).
func E7MessageOverhead(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E7",
		Title: "control-traffic cost per sensed event vs fleet size",
		Claim: "\"It is weaker than the strobe vector clock but is lightweight (strobe size " +
			"is O(1), not O(n))\" (§4.2.2); strobes are broadcast at each relevant event " +
			"(§4.2.3 item 4)",
		Header: []string{"n", "detector", "events", "link msgs", "bytes",
			"bytes/event", "msgs/event"},
	}
	sizes := []int{4, 8, 16, 32, 64}
	if cfg.Quick {
		sizes = []int{4, 16}
	}

	kinds := []struct {
		name string
		kind core.ClockKind
	}{
		{"strobe-scalar", core.ScalarStrobe},
		{"strobe-vector", core.VectorStrobe},
		{"strobe-diff-vector", core.DiffVectorStrobe},
		{"physical-report", core.PhysicalReport},
	}
	type outcome struct {
		events, sent, bytes int64
	}
	type point struct{ n, kind int }
	var points []point
	for _, n := range sizes {
		for k := range kinds {
			points = append(points, point{n, k})
		}
	}
	outcomes := sweep(cfg, points, 1, func(pt point, _ uint64) outcome {
		n, k := pt.n, kinds[pt.kind]
		pw := pulseWorkload{
			N: n, K: n/2 + 1,
			MeanHigh: 300 * sim.Millisecond, MeanLow: 300 * sim.Millisecond,
			Kind: k.kind, Delay: sim.NewDeltaBounded(20 * sim.Millisecond),
			Epsilon: sim.Millisecond,
			Horizon: sim.Time(cfg.pick(20, 5)) * sim.Second,
			Faults:  cfg.Faults,
		}
		h := pw.build(cfg.Seed)
		res := h.Run()
		return outcome{
			events: int64(len(h.World.Log())),
			sent:   res.Net.Sent, bytes: res.Net.Bytes,
		}
	})
	for i, pt := range points {
		o := outcomes[i][0]
		t.AddRow(pt.n, kinds[pt.kind].name, o.events, o.sent, o.bytes,
			ratio(o.bytes, o.events), ratio(o.sent, o.events))
	}
	t.Notes = append(t.Notes,
		"same seed → identical world workload across detectors for each n",
		"expected shape: bytes/event grows ~linearly in n for vectors (O(n) stamp × n receivers ⇒ ~n²·8B), "+
			"~linearly for scalars (O(1) stamp × n receivers), and stays O(1) for physical reports (unicast); "+
			"differential vectors sit between scalars and vectors, tracking how much actually changed")
	return t
}
