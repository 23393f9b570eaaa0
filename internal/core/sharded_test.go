package core

import (
	"reflect"
	"testing"

	"pervasive/internal/faults"
	"pervasive/internal/sim"
	"pervasive/internal/world"
)

// diffConfig is the shared scenario for the differential tests: 24 sensors
// on a 6×4 grid, pilot of 8, bounded delays with real jitter.
func diffConfig(shards, workers int) ShardedConfig {
	return ShardedConfig{
		Seed: 42, N: 24, Shards: shards, Workers: workers,
		Delay:   sim.NewDeltaBounded(5 * sim.Millisecond),
		Horizon: 2 * sim.Second,
		trace:   true,
	}
}

type diffRun struct {
	res      ShardedResults
	counters []string
	trace    interface{}
}

func runSharded(t *testing.T, cfg ShardedConfig) diffRun {
	t.Helper()
	h := NewShardedHarness(cfg)
	res := h.Run()
	return diffRun{res: res, counters: h.CounterLines(), trace: h.mergedTrace().Records}
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
	if !reflect.DeepEqual(want.trace, got.trace) {
		t.Errorf("%s: merged traces diverge", label)
	}
}

// TestShardedDifferentialAgainstSingleHeap is the differential oracle for
// the sharded engine: the identical seeded scenario through the S=1 fast
// path and through S ∈ {2, 4, 7} must produce byte-identical traces,
// checker verdicts, scores and counters — sequentially and with worker
// goroutines.
func TestShardedDifferentialAgainstSingleHeap(t *testing.T) {
	want := runSharded(t, diffConfig(1, 1))
	if len(want.res.Occurrences) == 0 {
		t.Fatalf("baseline detected nothing; scenario is too quiet to be a differential oracle")
	}
	if want.res.Confusion.TP == 0 {
		t.Fatalf("baseline scored no true positives: %+v", want.res.Confusion)
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
		h := NewShardedHarness(diffConfig(shards, 1))
		h.Run()
		for k, w := range h.Worlds {
			for _, ev := range w.Log() {
				if g := h.objBase[k] + ev.Object; g >= h.Cfg.Pilot {
					t.Fatalf("S=%d: world %d logged sensor %d, outside the pilot of %d", shards, k, g, h.Cfg.Pilot)
				}
			}
		}
		got := h.mergedPilotLog()
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
	mk := func(shards, workers int) ShardedConfig {
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

// TestShardedDenseSparseClocksAgree runs a fleet past the dense/sparse
// cutoff both ways: the clock representation must be invisible in every
// observable (stamps on the wire are exact diffs in both cases).
func TestShardedDenseSparseClocksAgree(t *testing.T) {
	mk := func(dense bool) ShardedConfig {
		return ShardedConfig{
			Seed: 7, N: 140, Shards: 4, Workers: 2,
			Delay:   sim.NewDeltaBounded(5 * sim.Millisecond),
			Horizon: 500 * sim.Millisecond,
			trace:   true, denseClocks: dense,
		}
	}
	want := runSharded(t, mk(true))
	got := runSharded(t, mk(false))
	if !reflect.DeepEqual(want.counters, got.counters) {
		t.Errorf("counters diverge across clock representations:\ndense  %v\nsparse %v",
			want.counters, got.counters)
	}
	if !reflect.DeepEqual(want.trace, got.trace) {
		t.Errorf("traces diverge across clock representations")
	}
	if !reflect.DeepEqual(want.res.Occurrences, got.res.Occurrences) {
		t.Errorf("occurrences diverge across clock representations")
	}
	if got.res.ClockBytes >= want.res.ClockBytes {
		t.Errorf("sparse clock state (%d bytes) not smaller than dense (%d bytes)",
			got.res.ClockBytes, want.res.ClockBytes)
	}
}

// TestShardedRaceAwareMatchesDetection verifies the memory-gated checker
// reconstructions change race telemetry only (markers, Borderline flags),
// never the detected intervals or the score.
func TestShardedRaceAwareMatchesDetection(t *testing.T) {
	mk := func(race bool) ShardedConfig {
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
