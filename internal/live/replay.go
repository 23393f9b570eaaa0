package live

import (
	"time"

	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// Feed parameterizes a workload replay through a live network.
type Feed struct {
	// Speed compresses virtual time into wall time: a Speed of 100 plays
	// 1 s of trace in 10 ms. <= 0 means real time.
	Speed float64
	// Bind maps a workload event's (object, attr) to the sensing node and
	// its variable name. Nil is the identity mapping (node = object,
	// variable = attr) — the convention of the classic scenarios, where
	// sensor i watches object i.
	Bind func(obj int, attr string) (proc int, varName string)
}

// FeedEvents replays a materialized workload (a decoded trace or a
// generator's output, in canonical order) through the running network:
// each event becomes a Sense call on its bound node, paced by the
// events' virtual times scaled by Speed. It returns the bound stream
// actually sensed — compare the return value's (object, attribute,
// value) stream against the network's TruthLog to verify the replay.
//
// This is the live leg of cross-engine record/replay, and it carries
// the honest guarantee: the world plane (the truth log's values and
// order) reproduces exactly; wall-clock timestamps, message delays and
// therefore detection output do not — the live engine is documented as
// not bit-reproducible, which is precisely what differential testing
// against the DES replay of the same trace measures.
func (nw *Network) FeedEvents(evs []workload.Event, f Feed) []workload.Event {
	speed := f.Speed
	if speed <= 0 {
		speed = 1
	}
	bind := f.Bind
	if bind == nil {
		bind = func(obj int, attr string) (int, string) { return obj, attr }
	}
	start := time.Now() //lint:allow determinism(replay pacing is wall-clock by design — the live engine's documented non-reproducible leg; value-stream identity is checked instead)
	bound := make([]workload.Event, 0, len(evs))
	for _, ev := range evs {
		target := start.Add(time.Duration(float64(ev.At)/speed) * time.Microsecond)
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
		proc, varName := bind(ev.Obj, ev.Attr)
		nw.Node(proc).Sense(varName, ev.Val)
		bound = append(bound, workload.Event{At: ev.At, Obj: proc, Attr: varName, Val: ev.Val})
	}
	return bound
}

// TruthLog returns a snapshot of the ground-truth log so far, projected
// onto workload events (object = node, attr = variable, At = wall µs
// since Start).
func (nw *Network) TruthLog() []workload.Event {
	nw.truthMu.Lock()
	defer nw.truthMu.Unlock()
	out := make([]workload.Event, len(nw.truth))
	for i, ev := range nw.truth {
		out[i] = workload.Event{At: sim.Time(ev.At), Obj: ev.Object, Attr: ev.Attr, Val: ev.New}
	}
	return out
}
