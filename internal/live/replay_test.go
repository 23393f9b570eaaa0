package live

import (
	"slices"
	"testing"
	"time"

	"pervasive/internal/core"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// values drops the times of evs: the live engine honors the (obj,
// attr, value) stream of a replay, but not its wall-clock timestamps.
func values(evs []workload.Event) []workload.Event {
	out := make([]workload.Event, len(evs))
	for i, ev := range evs {
		out[i] = workload.Event{Obj: ev.Obj, Attr: ev.Attr, Val: ev.Val}
	}
	return out
}

// TestLiveReplayMatchesTrace is the live leg of cross-engine
// record/replay: feeding a decoded trace through the goroutine engine
// must reproduce the trace's mutation stream exactly in the ground-truth
// log (values and order). Timestamps are wall-clock and detection is
// scheduling-dependent, so — per the live engine's documented
// contract — only the value stream is byte-compared.
func TestLiveReplayMatchesTrace(t *testing.T) {
	const horizon = 400 * sim.Millisecond
	gen := workload.HallTraffic{
		Seed: 9, Doors: 3,
		MeanArrival: 4 * sim.Millisecond, MeanStay: 40 * sim.Millisecond,
		InitialOccupancy: 5,
	}
	tr := &workload.Trace{
		Horizon: horizon,
		Meta:    map[string]string{"scenario": "hall"},
		Events:  gen.Events(horizon),
	}
	dec, err := workload.Decode(tr.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	nw := Start(Config{
		N: 3, Seed: 1, Kind: core.VectorStrobe,
		Delay: sim.NewDeltaBounded(200),
		Pred:  predicate.MustParse("sum(x) - sum(y) > 10"),
	})
	// Speed 50: ~400ms of trace in ~8ms wall, still strictly ordered.
	bound := nw.FeedEvents(dec.Events, Feed{Speed: 50})
	res := nw.Stop(50*time.Millisecond, 5*sim.Millisecond)

	truth := nw.TruthLog()
	if len(truth) != len(dec.Events) {
		t.Fatalf("truth log has %d events, trace has %d", len(truth), len(dec.Events))
	}
	if !slices.Equal(values(truth), values(bound)) {
		t.Fatal("live truth log diverged from the fed trace stream")
	}
	// The identity binding keeps (obj, attr, val) unchanged, so the
	// stream must also match the trace itself.
	if !slices.Equal(values(truth), values(dec.Events)) {
		t.Fatal("identity-bound replay diverged from the decoded trace")
	}
	// Detection sanity only: the checker saw the strobes the feed drove.
	if res.Net.Sent == 0 {
		t.Fatal("replay drove no strobe traffic")
	}
}
