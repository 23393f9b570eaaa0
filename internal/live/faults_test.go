package live

import (
	"runtime"
	"testing"
	"time"

	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// TestLiveOverloadStaysBounded is the regression test for the overload
// pileup: the old broadcast parked one timer goroutine on `peer.in <- m`
// per message that found the mailbox full, so saturating a node leaked
// goroutines until shutdown. A full mailbox must now be a counted drop.
func TestLiveOverloadStaysBounded(t *testing.T) {
	reg := obs.NewRegistry()
	const buffer = 4
	nw := Start(Config{
		N: 2, Seed: 1, Kind: core.VectorStrobe,
		Delay:  sim.Synchronous{},
		Pred:   predicate.MustParse("x@0 == 1"),
		Buffer: buffer,
		Obs:    reg,
	})
	// Stall node 1 inside a step that blocks (white-box; the node is up,
	// so deliveries still target its mailbox). Nothing drains `in` — the
	// saturated consumer the old code answered with one permanently
	// blocked goroutine per overflowing message.
	stalled, release := make(chan struct{}), make(chan struct{})
	nw.Node(1).post(func() { close(stalled); <-release })
	<-stalled
	base := runtime.NumGoroutine()
	const blast = 500
	for k := 0; k < blast; k++ {
		nw.Node(0).Sense("x", float64(k%2))
	}
	time.Sleep(100 * time.Millisecond) // let every delivery timer fire
	peak := runtime.NumGoroutine()
	if peak > base+50 {
		t.Fatalf("goroutines grew from %d to %d under overload — deliveries are blocking again", base, peak)
	}
	if got := nw.mailboxDrops.Load(); got != blast-buffer {
		t.Fatalf("mailbox drops %d, want %d (mailbox holds %d of %d deliveries)",
			got, blast-buffer, buffer, blast)
	}
	drops := nw.mailboxDrops.Load()
	close(release)
	nw.Stop(10*time.Millisecond, sim.Millisecond)
	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if counters["live.mailbox_drops"] != drops {
		t.Fatalf("live.mailbox_drops=%d, mailboxDrops=%d", counters["live.mailbox_drops"], drops)
	}
}

// TestLiveFaultTimerNeverParks: a fault transition's timer posts onto its
// node's goroutine, and a node stalled in a step with a full command
// channel leaves that timer's goroutine waiting. Stop must release every
// such waiter; a bare `n.cmd <- …` in Network.at leaves all but the few the
// loop drains before it sees done parked forever.
func TestLiveFaultTimerNeverParks(t *testing.T) {
	const pairs = 20
	plan := faults.NewPlan()
	var last sim.Time
	for k := 0; k < pairs; k++ {
		at := sim.Time(10+2*k) * sim.Millisecond
		last = at + sim.Millisecond
		plan.Crash(1, at).Recover(1, last)
	}
	base := runtime.NumGoroutine()
	nw := Start(Config{
		N: 2, Seed: 7, Kind: core.VectorStrobe,
		Delay:  sim.Synchronous{},
		Pred:   predicate.MustParse("x@0 == 1"),
		Buffer: 1,
		Faults: plan,
	})
	stalled, release := make(chan struct{}), make(chan struct{})
	nw.Node(1).post(func() { close(stalled); <-release })
	<-stalled
	await := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before Start", what, runtime.NumGoroutine(), base)
			}
		}
	}
	// The transitions fire: one sits in the command channel, the rest wait
	// beside the two node goroutines. The count is a floor, not an equality:
	// the runtime's finalizer goroutine counts while it runs.
	await("fault timers never fired", func() bool { return nw.Now() > last && runtime.NumGoroutine() > base+pairs })
	go func() {
		<-nw.done
		close(release)
	}()
	nw.Stop(0, sim.Millisecond)
	await("fault timers parked past Stop", func() bool { return runtime.NumGoroutine() <= base })
}

// TestLiveOverloadAgainstCrashedNode drives the exact ISSUE scenario: a
// crashed receiver whose mailbox nobody drains. Every delivery must
// resolve promptly (drop), never park a goroutine.
func TestLiveOverloadAgainstCrashedNode(t *testing.T) {
	nw := Start(Config{
		N: 2, Seed: 2, Kind: core.VectorStrobe,
		Delay:  sim.Synchronous{},
		Pred:   predicate.MustParse("x@0 == 1"),
		Buffer: 4,
		Faults: faults.NewPlan().Crash(1, 0),
	})
	time.Sleep(5 * time.Millisecond) // let the t=0 crash timer fire
	base := runtime.NumGoroutine()
	const blast = 500
	for k := 0; k < blast; k++ {
		nw.Node(0).Sense("x", float64(k%2))
	}
	time.Sleep(50 * time.Millisecond)
	peak := runtime.NumGoroutine()
	if peak > base+50 {
		t.Fatalf("goroutines grew from %d to %d against a crashed node", base, peak)
	}
	if nw.fault.Counts.CrashDrops.Load() == 0 {
		t.Fatal("deliveries to the crashed node were not counted")
	}
	nw.Stop(10*time.Millisecond, sim.Millisecond)
}

// TestLiveMailboxWatermark: the depth metric must be the high-watermark
// across all deliveries, not whichever delivery goroutine wrote last.
func TestLiveMailboxWatermark(t *testing.T) {
	reg := obs.NewRegistry()
	nw := Start(Config{
		N: 3, Seed: 3, Kind: core.VectorStrobe,
		Delay: sim.DeltaBounded{Min: 10, Max: 100},
		Pred:  predicate.MustParse("sum(x) > 2"),
		Obs:   reg,
	})
	for k := 0; k < 100; k++ {
		nw.Node(0).Sense("x", float64(k%2))
		nw.Node(1).Sense("x", float64(k%2))
	}
	time.Sleep(50 * time.Millisecond)
	hw := nw.mailboxHW.Load()
	if hw <= 0 {
		t.Fatal("no mailbox depth observed")
	}
	snap := reg.Snapshot()
	nw.Stop(10*time.Millisecond, sim.Millisecond)
	for _, g := range snap.Gauges {
		if g.Name == "live.mailbox_depth" {
			if g.Max < hw {
				t.Fatalf("gauge max %d below the true watermark %d", g.Max, hw)
			}
			return
		}
	}
	t.Fatal("live.mailbox_depth gauge missing")
}

// TestLiveCheckerCopiesGetDuplicateWindow: the checker's copy of a strobe
// is a link copy like any peer's, so a duplicate window duplicates it too
// and the checker's Seq discipline discards the second arrival. The live
// broadcast used to skip the window for the checker copy alone.
func TestLiveCheckerCopiesGetDuplicateWindow(t *testing.T) {
	reg := obs.NewRegistry()
	nw := Start(Config{
		N: 2, Seed: 6, Kind: core.VectorStrobe,
		Delay:  sim.Synchronous{},
		Pred:   predicate.MustParse("x@0 == 1"),
		Obs:    reg,
		Faults: faults.NewPlan().Duplicate(0, sim.Time(time.Hour/time.Microsecond), 1),
	})
	const senses = 10
	for k := 0; k < senses; k++ {
		nw.Node(0).Sense("x", float64(k%2))
	}
	nw.Stop(20*time.Millisecond, sim.Millisecond)
	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	// Zero-delay timers may still reorder two strobes, so Applied is not
	// pinned; every strobe arriving twice is: at least one discard each.
	applied, stale := nw.checker.Stat.Applied, nw.checker.Stat.Stale
	if applied+stale != 2*senses || stale < senses {
		t.Errorf("checker applied %d stale %d, want %d arrivals with stale >= %d", applied, stale, 2*senses, senses)
	}
	// One peer copy and one checker copy per sense, each duplicated.
	if got := counters["faults.duplicates"]; got != 2*senses {
		t.Errorf("faults.duplicates %d, want %d", got, 2*senses)
	}
}

// TestLiveCrashRecovery: a mid-run crash silences the node; recovery
// restarts it with a fresh epoch the checker accepts.
func TestLiveCrashRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	plan := faults.NewPlan().
		Crash(1, sim.Time(20*time.Millisecond/time.Microsecond)).
		Recover(1, sim.Time(60*time.Millisecond/time.Microsecond))
	nw := Start(Config{
		N: 2, Seed: 4, Kind: core.VectorStrobe,
		Delay:  sim.DeltaBounded{Min: 50, Max: 200},
		Pred:   predicate.MustParse("x@0 == 1 && x@1 == 1"),
		Obs:    reg,
		Faults: plan,
	})
	view := func() float64 {
		nw.checkerMu.Lock()
		defer nw.checkerMu.Unlock()
		return nw.checker.View(1, "x")
	}
	nw.Node(0).Sense("x", 1)
	nw.Node(1).Sense("x", 1) // pre-crash life: Seq 1 epoch 0
	time.Sleep(40 * time.Millisecond)
	nw.Node(1).Sense("x", 0) // unobserved by the crashed sensor
	time.Sleep(50 * time.Millisecond)
	if v := view(); v != 1 {
		t.Fatalf("the crashed sensor's sense reached the checker: view=%v", v)
	}
	// Post-recovery: Seq restarts at 1 under epoch 1; the checker must
	// apply it (predicate goes false) rather than discard it as stale.
	nw.Node(1).Sense("x", 0)
	time.Sleep(30 * time.Millisecond)
	if v := view(); v != 0 {
		t.Fatalf("checker never applied the post-recovery strobe: view=%v", v)
	}
	res := nw.Stop(20*time.Millisecond, 5*sim.Millisecond)
	if res.Net.Sent == 0 {
		t.Fatal("no traffic")
	}
	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if counters["faults.crashes"] != 1 || counters["faults.recoveries"] != 1 {
		t.Fatalf("transition counters: crashes=%d recoveries=%d",
			counters["faults.crashes"], counters["faults.recoveries"])
	}
	if counters["faults.suppressed_sends"] == 0 {
		t.Fatal("crashed sensor's missed sense not counted")
	}
}

// TestLiveRecoveryDrainsMailbox: messages queued for a node's old life
// must not be replayed into its fresh one. The node is stalled across a
// planned outage, so its crash and its rejoin queue behind the stall, and
// so do the copies stuffed into its mailbox meanwhile: each of them is
// either taken by the old life or drained by the rejoin.
func TestLiveRecoveryDrainsMailbox(t *testing.T) {
	reg := obs.NewRegistry()
	ms := func(d time.Duration) sim.Time { return sim.Time(d / time.Microsecond) }
	nw := Start(Config{
		N: 2, Seed: 5, Kind: core.VectorStrobe,
		Delay:  sim.Synchronous{},
		Pred:   predicate.MustParse("x@0 == 1"),
		Obs:    reg,
		Faults: faults.NewPlan().Crash(1, ms(10*time.Millisecond)).Recover(1, ms(30*time.Millisecond)),
	})
	n := nw.Node(1)
	var old, reborn int // stuffed copies the sensor took before and after its rejoin
	stalled, release := make(chan struct{}), make(chan struct{})
	n.post(func() {
		close(stalled)
		<-release
		h := nw.handlers[1]
		nw.handlers[1] = func(m network.Message, now sim.Time) {
			if n.s.Epoch() == 0 {
				old++
			} else {
				reborn++
			}
			h(m, now)
		}
	})
	<-stalled
	const stuffed = 10
	for k := 0; k < stuffed; k++ {
		n.in <- network.Message{Src: 0, Dst: 1, Payload: &core.StrobeMsg{Proc: 0, Seq: k + 1, Vec: []uint64{uint64(k + 1), 0}}}
	}
	for len(n.cmd) < 2 { // the crash and the rejoin, queued behind the stall
		time.Sleep(time.Millisecond)
	}
	close(release)
	settled := make(chan struct{})
	n.post(func() { close(settled) }) // runs after the crash and the rejoin
	<-settled
	if reborn != 0 {
		t.Fatalf("%d stale messages reached the rejoined sensor", reborn)
	}
	if got := len(n.in); got != 0 {
		t.Fatalf("%d stale messages survived recovery", got)
	}
	if drained := nw.drained.Load(); drained+int64(old) != stuffed {
		t.Fatalf("drained %d + taken before the rejoin %d, want %d", drained, old, stuffed)
	}
	if n.s.Epoch() != 1 {
		t.Fatalf("epoch %d after recovery", n.s.Epoch())
	}
	nw.Stop(5*time.Millisecond, sim.Millisecond)
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "live.mailbox_drained" && c.Value != nw.drained.Load() {
			t.Fatalf("live.mailbox_drained=%d, drained %d", c.Value, nw.drained.Load())
		}
	}
}
