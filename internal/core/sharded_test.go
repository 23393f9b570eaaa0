package core

import (
	"reflect"
	"testing"

	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/network"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
	"pervasive/internal/world"
)

// fleetConfig is a fleet as the scale scenario wires one: n sensors
// toggling with the given mean dwells, scored on the pilot predicate over
// the first min(8, n), with 5 ms-bounded delays.
func fleetConfig(seed uint64, n int, high, low sim.Duration) HarnessConfig {
	pilot := min(8, n)
	return HarnessConfig{
		Seed: seed, N: n, Kind: DiffVectorStrobe,
		Delay: sim.NewDeltaBounded(5 * sim.Millisecond),
		Pred:  PilotPred(pilot, pilot/2+1),
		Workload: workload.TogglerFleet{
			Seed: workload.DeriveSeed(seed, 0x2), N: n, Attr: "p", MeanHigh: high, MeanLow: low,
		},
	}
}

// diffConfig is the shared scenario for the differential tests: 24 sensors
// on a 6×4 grid, pilot of 8, bounded delays with real jitter.
func diffConfig(shards, workers int) HarnessConfig {
	cfg := fleetConfig(42, 24, 800*sim.Millisecond, 1500*sim.Millisecond)
	cfg.Shards, cfg.Workers = shards, workers
	cfg.Horizon = 2 * sim.Second
	cfg.Record = true
	return cfg
}

type diffRun struct {
	res        Results
	counters   []string
	senses     []flight.Event // the run record's events
	deliveries [][]delivery   // per sensor, in delivery order
}

// delivery is one strobe a live sensor was handed: when, and whose.
type delivery struct {
	at   sim.Time
	peer int
}

// logDeliveries wraps every sensor's handler to log the strobes delivered
// to it. Each sensor lives on one shard, so its log needs no lock; the
// returned logs fill in as the harness runs.
func logDeliveries(h *Harness) [][]delivery {
	logs := make([][]delivery, len(h.Sensors))
	for i, s := range h.Sensors {
		h.Sharded.Register(i, func(m network.Message, now sim.Time) {
			if strobe, ok := m.Payload.(*StrobeMsg); ok && !s.down {
				logs[i] = append(logs[i], delivery{at: now, peer: strobe.Proc})
			}
			s.onMessage(m, now)
		})
	}
	return logs
}

// recordedRun runs a harness built with record, its deliveries logged.
func recordedRun(h *Harness) diffRun {
	deliveries := logDeliveries(h)
	res := h.Run()
	return diffRun{res: res, counters: h.CounterLines(),
		senses: runRecord(h.Sensors, 0).Events, deliveries: deliveries}
}

func runSharded(t *testing.T, cfg HarnessConfig) diffRun {
	t.Helper()
	return recordedRun(NewHarness(cfg))
}

// assertSameRun checks every shard-count-invariant observable.
func assertSameRun(t *testing.T, label string, want, got diffRun) {
	t.Helper()
	if !reflect.DeepEqual(want.counters, got.counters) {
		t.Errorf("%s: counters diverge:\nwant %v\ngot  %v", label, want.counters, got.counters)
	}
	if !reflect.DeepEqual(want.res.Occurrences, got.res.Occurrences) {
		t.Errorf("%s: occurrences diverge: want %v got %v", label, want.res.Occurrences, got.res.Occurrences)
	}
	if !reflect.DeepEqual(want.res.Markers, got.res.Markers) {
		t.Errorf("%s: markers diverge: want %v got %v", label, want.res.Markers, got.res.Markers)
	}
	if !reflect.DeepEqual(want.res.Truth, got.res.Truth) {
		t.Errorf("%s: ground truth diverges: want %v got %v", label, want.res.Truth, got.res.Truth)
	}
	if want.res.Confusion != got.res.Confusion {
		t.Errorf("%s: confusion diverges: want %+v got %+v", label, want.res.Confusion, got.res.Confusion)
	}
	if want.res.ClockBytes != got.res.ClockBytes {
		t.Errorf("%s: clock bytes diverge: want %d got %d", label, want.res.ClockBytes, got.res.ClockBytes)
	}
	if len(want.senses) == 0 || !reflect.DeepEqual(want.senses, got.senses) {
		t.Errorf("%s: run records diverge (or are empty)", label)
	}
	if !reflect.DeepEqual(want.deliveries, got.deliveries) {
		t.Errorf("%s: delivery orders diverge", label)
	}
}

// TestShardedDifferentialAgainstSingleHeap is the differential oracle for
// the sharded engine: the identical seeded scenario through the S=1 fast
// path and through S ∈ {2, 4, 7} must produce byte-identical run records,
// delivery orders, checker verdicts, scores and counters — sequentially
// and with worker goroutines.
func TestShardedDifferentialAgainstSingleHeap(t *testing.T) {
	want := runSharded(t, diffConfig(1, 1))
	if len(want.res.Occurrences) == 0 {
		t.Fatalf("baseline detected nothing; scenario is too quiet to be a differential oracle")
	}
	if want.res.Confusion.TP == 0 {
		t.Fatalf("baseline scored no true positives: %+v", want.res.Confusion)
	}
	// The sparse clocks hold less than the dense layout would: two
	// N-vectors and their headers a sensor, 16 + 16N bytes.
	if n := int64(diffConfig(1, 1).N); want.res.ClockBytes >= n*(16+16*n) {
		t.Errorf("clock state %d bytes, not below the dense layout's %d", want.res.ClockBytes, n*(16+16*n))
	}
	for _, shards := range []int{2, 4, 7} {
		for _, workers := range []int{1, 4} {
			got := runSharded(t, diffConfig(shards, workers))
			label := "S=" + itoa(shards) + "/w=" + itoa(workers)
			assertSameRun(t, label, want, got)
			if shards > 1 && got.res.CrossSent == 0 {
				t.Errorf("%s: no cross-shard traffic; partitioning is not being exercised", label)
			}
		}
	}
}

// TestShardedPilotLogTracksPilotOnly: ground truth is logged for the pilot
// alone at every shard count — at S = 1 the one world hosts the whole fleet
// and must still log only its 8 pilot objects — and the merged pilot log is
// the same log whatever the partition. In diffConfig the pilot straddles a
// boundary at S = 4: sensors 0–6 on shard 0, sensor 7 first on shard 1.
func TestShardedPilotLogTracksPilotOnly(t *testing.T) {
	var want []world.Event
	for _, shards := range []int{1, 4} {
		h := NewHarness(diffConfig(shards, 1))
		h.Run()
		for k, w := range h.Worlds {
			for _, ev := range w.Log() {
				if g := h.objBase[k] + ev.Object; g >= 8 {
					t.Fatalf("S=%d: world %d logged sensor %d, outside the pilot of 8", shards, k, g)
				}
			}
		}
		got := h.mergedLog()
		if len(got) == 0 {
			t.Fatalf("S=%d: no pilot event logged", shards)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(want, got) {
			t.Errorf("S=%d: merged pilot log differs from S=1 (%d vs %d events)", shards, len(got), len(want))
		}
	}
}

// TestShardedDifferentialWithFaults repeats the oracle under a fault plan
// whose crash/recover transitions land on different shards at different
// times, so epoch bumps and post-recovery rejoin strobes cross shard
// boundaries mid-run.
func TestShardedDifferentialWithFaults(t *testing.T) {
	plan := &faults.Plan{
		Events: []faults.Event{
			{Kind: faults.Crash, Proc: 2, At: 300 * sim.Millisecond},
			{Kind: faults.Recover, Proc: 2, At: 900 * sim.Millisecond},
			{Kind: faults.Crash, Proc: 17, At: 500 * sim.Millisecond},
			{Kind: faults.Recover, Proc: 17, At: 1400 * sim.Millisecond},
			{Kind: faults.Crash, Proc: 9, At: 1100 * sim.Millisecond},
		},
		Partitions: []faults.Partition{{
			Groups: [][]int{{0, 1, 2, 3}, {20, 21, 22, 23}},
			From:   600 * sim.Millisecond, To: 1 * sim.Second,
		}},
	}
	mk := func(shards, workers int) HarnessConfig {
		cfg := diffConfig(shards, workers)
		cfg.Faults = plan
		return cfg
	}
	want := runSharded(t, mk(1, 1))
	sup := "faults.suppressed=0"
	found := false
	for _, line := range want.counters {
		if len(line) >= len("faults.") && line[:len("faults.")] == "faults." && line != sup {
			found = true
		}
	}
	if !found {
		t.Fatalf("fault plan had no observable effect: %v", want.counters)
	}
	for _, shards := range []int{2, 4, 7} {
		got := runSharded(t, mk(shards, 4))
		assertSameRun(t, "faults/S="+itoa(shards), want, got)
	}
}

// TestShardedRaceAwareMatchesDetection verifies the memory-gated checker
// reconstructions change race telemetry only (markers, Borderline flags),
// never the detected intervals or the score.
func TestShardedRaceAwareMatchesDetection(t *testing.T) {
	mk := func(race bool) HarnessConfig {
		cfg := diffConfig(3, 1)
		cfg.raceAware = race
		return cfg
	}
	spans := func(occ []Occurrence) [][2]sim.Time {
		out := make([][2]sim.Time, len(occ))
		for i, o := range occ {
			out[i] = [2]sim.Time{o.Start, o.End}
		}
		return out
	}
	want := runSharded(t, mk(false))
	got := runSharded(t, mk(true))
	if !reflect.DeepEqual(spans(want.res.Occurrences), spans(got.res.Occurrences)) {
		t.Errorf("race-aware checker changed detected intervals:\nblind %v\naware %v",
			spans(want.res.Occurrences), spans(got.res.Occurrences))
	}
	if want.res.Confusion != got.res.Confusion {
		t.Errorf("race-aware checker changed confusion: %+v vs %+v",
			want.res.Confusion, got.res.Confusion)
	}
	if len(want.res.Markers) != 0 {
		t.Errorf("race-blind checker emitted race markers: %v", want.res.Markers)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
