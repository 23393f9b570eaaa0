package live

import (
	"maps"
	"slices"
	"testing"
	"time"

	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// The substrate differential: live and the DES run the same core.Sensor
// and core.StrobeChecker, so one serialized sense script — each sense's
// deliveries waited out before the next — must leave the same Sense
// records (proc, epoch, seq, own clock), the same occurrence count and the
// same transport counts (Results.Net) on both. A difference is the
// substrate's: its delivery, its counting, its fault gates, its executor.

type senseStep struct {
	proc int
	val  float64
}

const substrateN = 3

var (
	substratePred = predicate.MustParse("sum(x) >= 2")
	// Three phases of senses; every step changes its object's value, so
	// every step is a world event. The DES plays phase k from k·300 ms on,
	// the live engine once the fault transition before it has run.
	substrateScript = [][]senseStep{
		{{0, 1}, {1, 1}, {2, 1}, {0, 0}, {1, 0}, {2, 0}, {1, 1}, {0, 1}},
		{{0, 0}, {1, 0}, {2, 1}, {0, 1}},
		{{1, 1}, {2, 0}, {1, 0}, {0, 0}},
	}
	// The crash variant takes sensor 1 down for the middle phase.
	substrateOutage = faults.NewPlan().Crash(1, 300*sim.Millisecond).Recover(1, 600*sim.Millisecond)
)

type senseRec struct {
	proc, epoch int
	seq, clock  uint64
}

func senseRecords(fl *flight.Recorder) []senseRec {
	var out []senseRec
	for _, ev := range fl.Snapshot("", 0).Events {
		if ev.Kind == flight.Sense.String() {
			out = append(out, senseRec{ev.Proc, ev.Epoch, ev.Seq, ev.Clock})
		}
	}
	return out
}

func desSubstrate(kind core.ClockKind, plan *faults.Plan) ([]senseRec, core.Results) {
	fl := flight.New(substrateN+1, 256)
	h := core.NewHarness(core.HarnessConfig{
		Seed: 1, N: substrateN, Kind: kind, Delay: sim.Synchronous{},
		Pred: substratePred, Horizon: sim.Second, Flight: fl, Faults: plan,
	})
	for i := 0; i < substrateN; i++ {
		h.Bind(i, h.World.AddObject("o", nil), "x", "x")
	}
	for k, phase := range substrateScript {
		for j, st := range phase {
			at := sim.Time(k)*300*sim.Millisecond + sim.Time(j+1)*sim.Millisecond
			h.Eng.At(at, func(sim.Time) { h.World.Set(st.proc, "x", st.val) })
		}
	}
	res := h.Run()
	return senseRecords(fl), res
}

func liveSubstrate(t *testing.T, kind core.ClockKind, plan *faults.Plan) ([]senseRec, core.Results) {
	t.Helper()
	reg := obs.NewRegistry()
	fl := flight.NewConcurrent(substrateN+1, 256)
	nw := Start(Config{
		N: substrateN, Seed: 1, Kind: kind, Delay: sim.Synchronous{},
		Pred: substratePred, Obs: reg, Flight: fl, Faults: plan,
	})
	// Every handler, the checker's included, reports each copy it took;
	// a sense makes at most substrateN copies, all read before the next.
	handled := make(chan struct{}, substrateN)
	counted := func(h network.Handler) network.Handler {
		return func(m network.Message, now sim.Time) { h(m, now); handled <- struct{}{} }
	}
	for _, n := range nw.nodes {
		wrapped := make(chan struct{})
		n.post(func() { nw.handlers[n.ID] = counted(nw.handlers[n.ID]); close(wrapped) })
		<-wrapped
	}
	nw.checkerMu.Lock()
	nw.handlers[substrateN] = counted(nw.handlers[substrateN])
	nw.checkerMu.Unlock()

	await := func(what string, done func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	transitions := []string{"", "faults.crashes", "faults.recoveries"}
	for k, phase := range substrateScript {
		down := -1
		if plan != nil {
			if c := transitions[k]; c != "" {
				await(c, func() bool { return reg.Counter(c).Value() == 1 })
			}
			if k == 1 {
				down = 1
			}
		}
		for _, st := range phase {
			nw.Node(st.proc).Sense("x", st.val)
			copies := 0 // a down sender sends nothing
			if st.proc != down {
				copies = substrateN // every other sensor plus the checker
				if down >= 0 {
					copies-- // the down sensor takes nothing
				}
			}
			for c := 0; c < copies; c++ {
				select {
				case <-handled:
				case <-time.After(5 * time.Second):
					t.Fatalf("sense %+v: %d of %d copies taken", st, c, copies)
				}
			}
		}
	}
	res := nw.Stop(5*time.Millisecond, sim.Millisecond)
	return senseRecords(fl), res
}

func checkSubstrates(t *testing.T, plan *faults.Plan) {
	for _, kind := range []core.ClockKind{core.VectorStrobe, core.ScalarStrobe} {
		des, desRes := desSubstrate(kind, plan)
		live, liveRes := liveSubstrate(t, kind, plan)
		if len(des) == 0 || len(des) != len(live) {
			t.Fatalf("%v: %d DES sense records, %d live", kind, len(des), len(live))
		}
		for i := range des {
			if des[i] != live[i] {
				t.Fatalf("%v: sense %d: DES %+v, live %+v", kind, i, des[i], live[i])
			}
		}
		if desOcc, liveOcc := len(desRes.Occurrences), len(liveRes.Occurrences); desOcc == 0 || desOcc != liveOcc {
			t.Fatalf("%v: %d DES occurrences, %d live", kind, desOcc, liveOcc)
		}
		if d, l := desRes.Net, liveRes.Net; d.Sent == 0 || d.Sent != l.Sent || d.Delivered != l.Delivered ||
			d.Dropped != l.Dropped || d.Bytes != l.Bytes || !maps.Equal(d.ByKind, l.ByKind) {
			t.Fatalf("%v: DES counted %+v, live %+v", kind, d, l)
		}
		if plan != nil && !slices.ContainsFunc(des, func(r senseRec) bool { return r.epoch == 1 }) {
			t.Fatalf("%v: no sense after the rejoin carries epoch 1: %+v", kind, des)
		}
	}
}

func TestSubstrateDifferential(t *testing.T) { checkSubstrates(t, nil) }

// TestSubstrateDifferentialCrashRecover: the outage suppresses the same
// senses on both substrates and the epoch bumps at the same sense.
func TestSubstrateDifferentialCrashRecover(t *testing.T) { checkSubstrates(t, substrateOutage) }
