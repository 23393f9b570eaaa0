package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

// pulseHarness wires n sensors each watching its own pulsing object, with
// the conjunction-of-pulses predicate.
func pulseHarness(seed uint64, n int, kind ClockKind, delay sim.DelayModel,
	pulseMeanGap, pulseWidth sim.Duration, horizon sim.Time) *Harness {
	return pulseFleet(HarnessConfig{
		Seed: seed, N: n, Kind: kind, Delay: delay,
		Pred:     ConjunctiveGlobal(predicate.MustParse("p@0 == 1"), n),
		Modality: predicate.Instantaneously,
		Horizon:  horizon,
	}, pulseMeanGap, pulseWidth)
}

// pulseFleet wires cfg's harness with one pulsing object per sensor.
func pulseFleet(cfg HarnessConfig, pulseMeanGap, pulseWidth sim.Duration) *Harness {
	h := NewHarness(cfg)
	for i := 0; i < cfg.N; i++ {
		obj := h.World.AddObject("obj", nil)
		h.Bind(i, obj, "p", "p")
		h.Install(workload.Toggler{Seed: h.World.RNG().Uint64(), Obj: obj, Attr: "p", MeanHigh: pulseWidth,
			MeanLow: pulseMeanGap})
	}
	return h
}

func TestVectorStrobeEndToEndHighAccuracy(t *testing.T) {
	// The paper's favourable regime: event rate low relative to Δ.
	// Pulses last seconds; Δ = 20 ms.
	h := pulseHarness(1, 3, VectorStrobe, sim.NewDeltaBounded(20*sim.Millisecond),
		2*sim.Second, 3*sim.Second, 60*sim.Second)
	res := h.Run()
	if len(res.Truth) < 3 {
		t.Fatalf("workload too thin: %d true intervals", len(res.Truth))
	}
	if r := res.Confusion.Recall(); r < 0.9 {
		t.Fatalf("recall %.3f: %+v", r, res.Confusion)
	}
	if res.Confusion.FP > 0 && res.Confusion.BorderlineFP < res.Confusion.FP {
		t.Fatalf("vector checker produced unflagged FPs: %+v", res.Confusion)
	}
}

func TestVectorDegradesGracefullyWithDelta(t *testing.T) {
	// As Δ approaches the event scale, accuracy decreases (more FN).
	fast := pulseHarness(2, 3, VectorStrobe, sim.NewDeltaBounded(5*sim.Millisecond),
		300*sim.Millisecond, 200*sim.Millisecond, 120*sim.Second).Run()
	slow := pulseHarness(2, 3, VectorStrobe, sim.NewDeltaBounded(2*sim.Second),
		300*sim.Millisecond, 200*sim.Millisecond, 120*sim.Second).Run()
	if fast.Confusion.Recall() < slow.Confusion.Recall() {
		t.Fatalf("recall did not degrade with Δ: fast=%.3f slow=%.3f",
			fast.Confusion.Recall(), slow.Confusion.Recall())
	}
	if slow.Confusion.FN == 0 {
		t.Fatal("huge Δ produced no false negatives at all — suspicious")
	}
}

func TestScalarProducesUnflaggedErrors(t *testing.T) {
	// With racing pulses and nontrivial Δ, the scalar checker reports
	// definite occurrences it cannot vouch for; the vector checker flags
	// its race-affected ones. Aggregate across seeds for stability.
	var scalarUnflaggedFP, vectorUnflaggedFP int64
	for seed := uint64(0); seed < 8; seed++ {
		vec := pulseHarness(seed, 4, VectorStrobe, sim.NewDeltaBounded(150*sim.Millisecond),
			400*sim.Millisecond, 120*sim.Millisecond, 60*sim.Second).Run()
		sca := pulseHarness(seed, 4, ScalarStrobe, sim.NewDeltaBounded(150*sim.Millisecond),
			400*sim.Millisecond, 120*sim.Millisecond, 60*sim.Second).Run()
		vectorUnflaggedFP += vec.Confusion.FP - vec.Confusion.BorderlineFP
		scalarUnflaggedFP += sca.Confusion.FP - sca.Confusion.BorderlineFP
	}
	if scalarUnflaggedFP <= vectorUnflaggedFP {
		t.Fatalf("scalar unflagged FP (%d) not worse than vector (%d)",
			scalarUnflaggedFP, vectorUnflaggedFP)
	}
}

func TestHarnessDeterminism(t *testing.T) {
	run := func() Results {
		return pulseHarness(9, 3, VectorStrobe, sim.NewDeltaBounded(50*sim.Millisecond),
			500*sim.Millisecond, 300*sim.Millisecond, 30*sim.Second).Run()
	}
	a, b := run(), run()
	if a.Confusion != b.Confusion || len(a.Occurrences) != len(b.Occurrences) {
		t.Fatalf("non-deterministic: %+v vs %+v", a.Confusion, b.Confusion)
	}
}

func TestHarnessMessageCosts(t *testing.T) {
	vec := pulseHarness(4, 6, VectorStrobe, sim.Synchronous{},
		300*sim.Millisecond, 200*sim.Millisecond, 20*sim.Second).Run()
	sca := pulseHarness(4, 6, ScalarStrobe, sim.Synchronous{},
		300*sim.Millisecond, 200*sim.Millisecond, 20*sim.Second).Run()
	if vec.Net.Sent != sca.Net.Sent {
		t.Fatalf("same workload, different message counts: %d vs %d",
			vec.Net.Sent, sca.Net.Sent)
	}
	if vec.Net.Bytes <= sca.Net.Bytes {
		t.Fatalf("vector strobes (O(n)) not costlier than scalar (O(1)): %d vs %d",
			vec.Net.Bytes, sca.Net.Bytes)
	}
}

func TestScalarEqualsVectorAtDeltaZero(t *testing.T) {
	// §4.2.3 item 5: with Δ=0 and a strobe per event, scalars do not lose
	// accuracy relative to vectors.
	for seed := uint64(0); seed < 5; seed++ {
		vec := pulseHarness(seed, 4, VectorStrobe, sim.Synchronous{},
			300*sim.Millisecond, 150*sim.Millisecond, 30*sim.Second).Run()
		sca := pulseHarness(seed, 4, ScalarStrobe, sim.Synchronous{},
			300*sim.Millisecond, 150*sim.Millisecond, 30*sim.Second).Run()
		if vec.Confusion.TP != sca.Confusion.TP ||
			vec.Confusion.FP != sca.Confusion.FP ||
			vec.Confusion.FN != sca.Confusion.FN {
			t.Fatalf("seed %d: Δ=0 scalar ≠ vector: %+v vs %+v",
				seed, sca.Confusion, vec.Confusion)
		}
	}
}

func TestLossLocalization(t *testing.T) {
	// Drop every strobe in a window; detection outside the window must be
	// unaffected (no long-term ripple, §4.2.2).
	mkDelay := func(withLoss bool) sim.DelayModel {
		inner := sim.NewDeltaBounded(10 * sim.Millisecond)
		if !withLoss {
			return inner
		}
		return sim.LossWindow{Inner: inner,
			From: 20 * sim.Second, To: 25 * sim.Second}
	}
	clean := pulseHarness(7, 3, VectorStrobe, mkDelay(false),
		800*sim.Millisecond, 600*sim.Millisecond, 60*sim.Second).Run()
	lossy := pulseHarness(7, 3, VectorStrobe, mkDelay(true),
		800*sim.Millisecond, 600*sim.Millisecond, 60*sim.Second).Run()

	// Compare detection before the window and well after it.
	countIn := func(res Results, lo, hi sim.Time) int {
		n := 0
		for _, o := range res.Occurrences {
			if o.Start >= lo && o.Start < hi {
				n++
			}
		}
		return n
	}
	if countIn(clean, 0, 19*sim.Second) != countIn(lossy, 0, 19*sim.Second) {
		t.Fatal("loss window affected detection before it")
	}
	// After the window plus one value-refresh cycle, the checker resyncs
	// on the next strobes.
	after := 30 * sim.Second
	c1, c2 := countIn(clean, after, 60*sim.Second), countIn(lossy, after, 60*sim.Second)
	diff := c1 - c2
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		t.Fatalf("loss rippled: clean=%d lossy=%d occurrences after window", c1, c2)
	}
}

func TestConjunctiveDefinitelyEndToEnd(t *testing.T) {
	local := predicate.MustParse("p@0 == 1")
	n := 3
	h := NewHarness(HarnessConfig{
		Seed: 11, N: n, Kind: VectorStrobe,
		Delay:     sim.NewDeltaBounded(20 * sim.Millisecond),
		Pred:      ConjunctiveGlobal(local, n),
		LocalConj: local,
		Modality:  predicate.Definitely,
		Horizon:   60 * sim.Second,
	})
	for i := 0; i < n; i++ {
		obj := h.World.AddObject("obj", nil)
		h.Bind(i, obj, "p", "p")
		h.Install(workload.Toggler{Seed: h.World.RNG().Uint64(), Obj: obj, Attr: "p", MeanHigh: 3 * sim.Second,
			MeanLow: 1 * sim.Second})
	}
	res := h.Run()
	if len(res.Truth) < 3 {
		t.Fatalf("thin workload: %d true intervals", len(res.Truth))
	}
	if r := res.Confusion.Recall(); r < 0.7 {
		t.Fatalf("Definitely recall %.3f: %+v", r, res.Confusion)
	}
}

func TestHarnessLatticeExecution(t *testing.T) {
	h := pulseFleet(HarnessConfig{
		Seed: 5, N: 3, Kind: VectorStrobe, Delay: sim.NewDeltaBounded(10 * sim.Millisecond),
		Pred:     ConjunctiveGlobal(predicate.MustParse("p@0 == 1"), 3),
		Modality: predicate.Instantaneously,
		Horizon:  5 * sim.Second, Record: true,
	}, 400*sim.Millisecond, 300*sim.Millisecond)
	h.Run()
	ex := h.LatticeExecution()
	if ex.Events() == 0 {
		t.Fatal("no stamps logged")
	}
	if !ex.PathConsistentAlong(ex.Path()) {
		t.Fatal("actual path inconsistent under strobe stamps")
	}
}

// A classic diff-vector fleet has no classic block unless Record (or a
// conjunct) asks for one; with Record in the config its run record carries
// the very stamps the full-vector protocol records on the same run, and
// without it there is no record.
func TestHarnessDiffVectorRecord(t *testing.T) {
	run := func(kind ClockKind, record bool) *Harness {
		h := pulseFleet(HarnessConfig{
			Seed: 9, N: 4, Kind: kind, Delay: sim.NewDeltaBounded(20 * sim.Millisecond),
			Pred:     ConjunctiveGlobal(predicate.MustParse("p@0 == 1"), 4),
			Modality: predicate.Instantaneously,
			Horizon:  10 * sim.Second, Record: record,
		}, 700*sim.Millisecond, 400*sim.Millisecond)
		h.Run()
		return h
	}
	want := run(VectorStrobe, true).LatticeExecution()
	got := run(DiffVectorStrobe, true).LatticeExecution()
	if want == nil || want.Events() == 0 {
		t.Fatal("vector fleet recorded no stamps")
	}
	if !reflect.DeepEqual(got.Stamps, want.Stamps) || !reflect.DeepEqual(got.Times, want.Times) {
		t.Fatalf("diff-vector record (%d stamps) differs from vector record (%d)", got.Events(), want.Events())
	}
	bare := run(DiffVectorStrobe, false)
	for i, s := range bare.Sensors {
		if s.c != nil {
			t.Fatalf("sensor %d: diff-vector fleet without Record has a classic block", i)
		}
	}
	if d := bare.RunRecord(); d != nil {
		t.Fatalf("a fleet without Record has a run record of %d events", len(d.Events))
	}
}

// The classic modes read every field of the sensor's classic block — the
// dense and scalar clocks, the physical clock, the conjunct and its interval
// state, through a crash and a rejoin — so their full results are pinned:
// moving that state must not move a byte of any of them.
func TestClassicModesPinned(t *testing.T) {
	local := predicate.MustParse("p@0 == 1")
	plan, err := faults.Parse("crash(1,5s);recover(1,8s)")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		kind     ClockKind
		modality predicate.Modality
		want     string
	}{
		{"vector", VectorStrobe, predicate.Instantaneously, "388faab01808204e"},
		{"scalar", ScalarStrobe, predicate.Instantaneously, "fb1c98e0a5778417"},
		{"physical", PhysicalReport, predicate.Instantaneously, "32351020cc408ff5"},
		{"possibly", VectorStrobe, predicate.Possibly, "5bda6ab9d8804538"},
		{"definitely", VectorStrobe, predicate.Definitely, "bfa904d327007866"},
	}
	for _, c := range cases {
		cfg := HarnessConfig{
			Seed: 3, N: 4, Kind: c.kind, Delay: sim.NewDeltaBounded(20 * sim.Millisecond),
			Pred: ConjunctiveGlobal(local, 4), Modality: c.modality,
			Epsilon: 5 * sim.Millisecond, Horizon: 30 * sim.Second, Faults: plan,
		}
		if c.modality != predicate.Instantaneously {
			cfg.LocalConj = local
		}
		res := pulseFleet(cfg, 900*sim.Millisecond, 1200*sim.Millisecond).Run()
		sum := sha256.Sum256([]byte(fmt.Sprint(res.Occurrences, res.Markers, res.Truth, res.Confusion,
			res.Net.Sent, res.Net.Delivered, res.Net.Dropped, res.Net.Bytes)))
		if got := hex.EncodeToString(sum[:8]); got != c.want {
			t.Errorf("%s: results digest %s, pinned %s", c.name, got, c.want)
		}
	}
}

func TestHarnessPanicsWithoutPred(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHarness(HarnessConfig{N: 2, Modality: predicate.Instantaneously})
}

func TestHarnessPanicsConjunctiveScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHarness(HarnessConfig{
		N: 2, Kind: ScalarStrobe, Modality: predicate.Definitely,
		Pred: predicate.MustParse("p@0 == 1 && p@1 == 1"),
	})
}

// TestHarnessRefusesWhatNoTransportRuns: one constructor makes every
// combination of transport and option expressible, so each one neither
// transport can run is refused by a panic naming the field: network.Net
// runs on one engine; ShardedNet does not flood, cannot carry the
// single-writer flight recorder or the conjunctive checker, and runs the
// differential vector protocol; the checker tree reads a fleet's strobes;
// and several shards need a positive lookahead.
func TestHarnessRefusesWhatNoTransportRuns(t *testing.T) {
	classic := func() HarnessConfig {
		return HarnessConfig{N: 4, Delay: sim.NewDeltaBounded(sim.Millisecond), Pred: predicate.MustParse("p@0 >= 1")}
	}
	fleet := func() HarnessConfig { return fleetConfig(1, 4, sim.Second, sim.Second) }
	for _, tc := range []struct {
		name string
		cfg  func() HarnessConfig
		want string
	}{
		{"Shards without a fleet", func() HarnessConfig { c := classic(); c.Shards = 2; return c },
			"core: Shards > 1 needs a fleet Workload"},
		{"CheckerFanout without a fleet", func() HarnessConfig { c := classic(); c.CheckerFanout = 4; return c },
			"core: CheckerFanout >= 2 needs a fleet Workload"},
		{"Flood with a fleet", func() HarnessConfig { c := fleet(); c.Flood = true; return c },
			"core: Flood with a fleet Workload"},
		{"Flight with a fleet", func() HarnessConfig { c := fleet(); c.Flight = flight.New(5, 8); return c },
			"core: Flight with a fleet Workload"},
		{"Possibly with a fleet", func() HarnessConfig { c := fleet(); c.Modality = predicate.Possibly; return c },
			"core: Modality Possibly with a fleet Workload"},
		{"Definitely with a fleet", func() HarnessConfig { c := fleet(); c.Modality = predicate.Definitely; return c },
			"core: Modality Definitely with a fleet Workload"},
		{"Kind with a fleet", func() HarnessConfig { c := fleet(); c.Kind = VectorStrobe; return c },
			"core: Kind strobe-vector with a fleet Workload"},
		{"zero lookahead over shards", func() HarnessConfig {
			c := fleet()
			c.Shards, c.Delay = 2, sim.Synchronous{}
			return c
		}, "sim: sharded run requires a positive minimum cross-shard delay (lookahead)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, tc.want) {
					t.Errorf("panic %q, want one starting %q", msg, tc.want)
				}
			}()
			NewHarness(tc.cfg())
		})
	}
	// Each refusal is of the combination, not of its parts.
	c := fleet()
	c.Shards = 2
	NewHarness(c)
	c = classic()
	c.Flood, c.Flight = true, flight.New(5, 8)
	NewHarness(c)
}
