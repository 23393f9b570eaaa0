// Package live is the second execution engine: instead of the
// deterministic discrete-event simulator, every sensor process is a real
// goroutine and every link delivery is a timer-delayed channel send — the
// natural Go realization of the paper's asynchronous message-passing
// system model (Section 2). The strobe protocols and the checker logic
// are shared with the DES engine (package core); only the substrate
// differs.
//
// Virtual time in live mode is wall-clock microseconds since Start. Runs
// are not bit-reproducible (goroutine scheduling and real timers are not),
// so tests and examples use workloads with wide margins; the DES engine is
// the reproducible harness for experiments.
package live

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pervasive/internal/clock"
	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/world"
)

// Config assembles a live sensor network.
type Config struct {
	N    int
	Seed uint64
	Kind core.ClockKind // VectorStrobe or ScalarStrobe
	// Delay is sampled per link message; virtual µs are wall µs.
	Delay sim.DelayModel
	// Pred is the global predicate detected under Instantaneously.
	Pred predicate.Cond
	// Buffer is each node's mailbox capacity (default 1024).
	Buffer int
	// Obs, if non-nil, receives runtime metrics (goroutine sends, drops,
	// mailbox depth, checker strobes); its time source is set to the
	// network's wall-µs clock. Nil disables instrumentation.
	Obs *obs.Registry
	// MetricsAddr, when set together with Obs, serves the registry over
	// HTTP at /metrics (JSON snapshot) and /debug/vars (expvar) for the
	// duration of the run — e.g. "127.0.0.1:0". The bound address is in
	// Network.Metrics.Addr.
	MetricsAddr string
	// Faults, if non-nil and non-empty, is the deterministic fault plan
	// (package faults). Crash stops the node's goroutine; recover drains
	// its mailbox and restarts it with fresh clocks, Seq 1 and a bumped
	// epoch. Fault times are wall-clock µs since Start. Partitions and
	// dup/reorder windows gate deliveries like the DES transport.
	Faults *faults.Plan
	// Flight, if non-nil, is the causal flight recorder. It must be
	// built with flight.NewConcurrent over N+1 processes (node
	// goroutines and delivery timers record concurrently; the extra
	// ring is the checker's) — Start panics on a single-threaded
	// recorder. Its time base is labeled "wall-us" and trigger-scoped
	// dumps are collected into Network.Dumps().
	Flight *flight.Recorder
}

// Network is a running live sensor network.
type Network struct {
	cfg   Config
	nodes []*Node

	checkerMu sync.Mutex
	checker   *core.StrobeChecker

	delayMu sync.Mutex
	rng     *stats.RNG

	start time.Time

	truthMu sync.Mutex
	truth   []world.Event

	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup

	// lifeMu serializes node crash/recover transitions against each other
	// and against Stop; stopping blocks restarts once shutdown has begun.
	lifeMu   sync.Mutex
	stopping bool
	fault    *faults.Injector
	timers   []*time.Timer // pending fault transitions, stopped by Stop

	// mailboxHW is the high-watermark of any node's mailbox depth. The old
	// live.mailbox_depth gauge was Set from every delivery goroutine, so
	// its value was whichever delivery ran last — a lottery, not a metric.
	// Deliveries CAS-max into this atomic instead and a snapshot-time
	// collector publishes it.
	mailboxHW    atomic.Int64
	mailboxDrops atomic.Int64
	drained      atomic.Int64

	sentMu sync.Mutex
	sent   int64
	bytes  int64

	// Metrics is the HTTP metrics endpoint when Config.MetricsAddr was
	// set and the listener bound; nil otherwise. Closed by Stop.
	Metrics *obs.MetricsServer

	// dumpMu guards dumps, collected from whatever goroutine fires a
	// flight trigger (fault timer, checker delivery).
	dumpMu sync.Mutex
	dumps  []*flight.Dump

	// Resolved obs instruments; nil (no-ops) when Config.Obs is nil.
	obsSends        *obs.Counter
	obsDrops        *obs.Counter
	obsBytes        *obs.Counter
	obsMailbox      *obs.Gauge
	obsMailboxDrops *obs.Counter
	obsChecker      *obs.Counter
}

// Node is one goroutine-backed sensor process.
type Node struct {
	ID  int
	nw  *Network
	in  chan core.StrobeMsg
	cmd chan senseCmd

	// down marks a crashed node: senders drop instead of enqueueing.
	down atomic.Bool
	// die ends the current goroutine life only (unlike nw.done); dead is
	// closed by the goroutine as it exits, ordering its final clock
	// accesses before the recovery's reset. Both replaced on each
	// recovery, guarded by nw.lifeMu.
	die  chan struct{}
	dead chan struct{}

	// clock state is owned by the node's goroutine; between a crash and
	// the matching recovery no goroutine is live, so the reset in
	// recoverNode is ordered before the restarted loop by the go statement.
	vec   *clock.StrobeVector
	sc    *clock.StrobeScalar
	seq   int
	epoch int
}

type senseCmd struct {
	varName string
	value   float64
}

// Start builds and starts the network; every node's goroutine begins
// consuming its mailbox immediately.
func Start(cfg Config) *Network {
	if cfg.N <= 0 {
		panic("live: need at least one node")
	}
	if cfg.Delay == nil {
		cfg.Delay = sim.Synchronous{}
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	if cfg.Kind != core.VectorStrobe && cfg.Kind != core.ScalarStrobe {
		panic("live: engine supports strobe clock kinds only")
	}
	nw := &Network{
		cfg:   cfg,
		rng:   stats.NewRNG(cfg.Seed),
		start: time.Now(), //lint:allow determinism(the live engine's virtual time is wall-clock µs since Start by design; the DES is the reproducible harness)
		done:  make(chan struct{}),
	}
	nw.cfg.Obs.SetNow("wall-us", nw.Now)
	if cfg.Flight != nil {
		if !cfg.Flight.Concurrent() {
			panic("live: Config.Flight must be built with flight.NewConcurrent")
		}
		cfg.Flight.SetTimeBase("wall-us")
		cfg.Flight.SetTrigger(func(d *flight.Dump) {
			if cfg.Obs != nil {
				snap := cfg.Obs.Snapshot()
				d.Metrics = &snap
			}
			nw.dumpMu.Lock()
			nw.dumps = append(nw.dumps, d)
			nw.dumpMu.Unlock()
		})
	}
	nw.obsSends = cfg.Obs.Counter("live.sends")
	nw.obsDrops = cfg.Obs.Counter("live.drops")
	nw.obsBytes = cfg.Obs.Counter("live.bytes")
	nw.obsMailbox = cfg.Obs.Gauge("live.mailbox_depth")
	nw.obsMailboxDrops = cfg.Obs.Counter("live.mailbox_drops")
	nw.obsChecker = cfg.Obs.Counter("live.checker_strobes")
	if cfg.Obs != nil {
		cfg.Obs.RegisterCollector(func(r *obs.Registry) {
			hw := nw.mailboxHW.Load()
			nw.obsMailbox.SetWithMax(hw, hw)
			r.Counter("live.mailbox_drained").Store(nw.drained.Load())
			nw.fault.EachCount(func(name string, v int64) { r.Counter(name).Store(v) })
		})
	}
	if cfg.MetricsAddr != "" && cfg.Obs != nil {
		cfg.Obs.PublishExpvar("pervasive")
		if srv, err := cfg.Obs.Serve(cfg.MetricsAddr); err == nil {
			nw.Metrics = srv
		}
	}
	if cfg.Kind == core.VectorStrobe {
		nw.checker = core.NewVectorChecker(cfg.N, cfg.Pred)
	} else {
		nw.checker = core.NewScalarChecker(cfg.N, cfg.Pred)
	}
	nw.checker.SetObs(cfg.Obs)
	nw.checker.SetFlight(cfg.Flight, cfg.N)
	for i := 0; i < cfg.N; i++ {
		n := &Node{
			ID: i, nw: nw,
			in:   make(chan core.StrobeMsg, cfg.Buffer),
			cmd:  make(chan senseCmd, cfg.Buffer),
			die:  make(chan struct{}),
			dead: make(chan struct{}),
		}
		if cfg.Kind == core.VectorStrobe {
			n.vec = clock.NewStrobeVector(i, cfg.N)
		} else {
			n.sc = &clock.StrobeScalar{}
		}
		nw.nodes = append(nw.nodes, n)
	}
	for _, n := range nw.nodes {
		nw.wg.Add(1)
		go n.loop(n.die, n.dead)
	}
	nw.scheduleFaults(faults.NewInjector(cfg.Faults))
	return nw
}

// scheduleFaults arms wall-clock timers for the plan's crash/recover
// transitions and installs the injector gating deliveries.
func (nw *Network) scheduleFaults(inj *faults.Injector) {
	if inj == nil {
		return
	}
	for _, ev := range inj.Transitions() {
		if ev.Proc < 0 || ev.Proc >= nw.cfg.N {
			panic(fmt.Sprintf("live: fault plan event targets process %d of %d", ev.Proc, nw.cfg.N))
		}
	}
	nw.fault = inj
	spans := make([]obs.Span, nw.cfg.N)
	crashes := nw.cfg.Obs.Counter("faults.crashes")
	recoveries := nw.cfg.Obs.Counter("faults.recoveries")
	for _, ev := range inj.Transitions() {
		ev := ev
		t := time.AfterFunc(time.Duration(ev.At)*time.Microsecond, func() {
			switch ev.Kind {
			case faults.Crash:
				if nw.crashNode(ev.Proc) {
					crashes.Inc()
					nw.lifeMu.Lock()
					spans[ev.Proc] = nw.cfg.Obs.StartSpanAt(
						"faults.down.p"+strconv.Itoa(ev.Proc), nw.Now())
					epoch := nw.nodes[ev.Proc].epoch
					nw.lifeMu.Unlock()
					nw.recordTransition(flight.Crash, ev.Proc, epoch, "fault:crash(p")
				}
			case faults.Recover:
				if nw.recoverNode(ev.Proc) {
					recoveries.Inc()
					nw.lifeMu.Lock()
					spans[ev.Proc].EndAt(nw.Now())
					spans[ev.Proc] = obs.Span{}
					epoch := nw.nodes[ev.Proc].epoch
					nw.lifeMu.Unlock()
					nw.recordTransition(flight.Recover, ev.Proc, epoch, "fault:recover(p")
				}
			}
		})
		nw.timers = append(nw.timers, t)
	}
}

// recordTransition stamps a crash/recover flight record for node i and
// triggers a full-fleet dump tagged with the transition.
func (nw *Network) recordTransition(kind flight.Kind, i, epoch int, tag string) {
	fl := nw.cfg.Flight
	if fl == nil {
		return
	}
	now := nw.Now()
	fl.Record(flight.Rec{
		Kind: kind, Proc: int32(i), Peer: flight.NoPeer,
		Epoch: int32(epoch), At: now,
	})
	fl.TriggerDump(tag+strconv.Itoa(i)+")", now)
}

// crashNode stops node i's goroutine; queued and future deliveries drop.
// Reports whether a transition happened.
func (nw *Network) crashNode(i int) bool {
	nw.lifeMu.Lock()
	defer nw.lifeMu.Unlock()
	n := nw.nodes[i]
	if nw.stopping || n.down.Load() {
		return false
	}
	n.down.Store(true)
	close(n.die)
	return true
}

// recoverNode restarts a crashed node: whatever accumulated in its
// mailbox while it was down is drained (a reboot loses volatile state),
// clocks and Seq restart fresh, and the epoch bump tells the checker.
// Reports whether a transition happened.
func (nw *Network) recoverNode(i int) bool {
	nw.lifeMu.Lock()
	defer nw.lifeMu.Unlock()
	n := nw.nodes[i]
	if nw.stopping || !n.down.Load() {
		return false
	}
	<-n.dead // the dead life's last clock accesses precede the reset
drain:
	for {
		select {
		case <-n.in:
			nw.drained.Add(1)
		case <-n.cmd:
			nw.drained.Add(1)
		default:
			break drain
		}
	}
	if n.vec != nil {
		n.vec = clock.NewStrobeVector(n.ID, nw.cfg.N)
	} else {
		n.sc = &clock.StrobeScalar{}
	}
	n.seq = 0
	n.epoch++
	n.die = make(chan struct{})
	n.dead = make(chan struct{})
	n.down.Store(false)
	nw.wg.Add(1)
	go n.loop(n.die, n.dead)
	return true
}

// MailboxHighWatermark returns the deepest any node's mailbox has been.
func (nw *Network) MailboxHighWatermark() int64 { return nw.mailboxHW.Load() }

// MailboxDrops returns deliveries dropped because a mailbox was full.
func (nw *Network) MailboxDrops() int64 { return nw.mailboxDrops.Load() }

// Dumps returns a copy of the flight dumps collected so far, in
// trigger order. Call after Stop for the complete set.
func (nw *Network) Dumps() []*flight.Dump {
	nw.dumpMu.Lock()
	defer nw.dumpMu.Unlock()
	return append([]*flight.Dump(nil), nw.dumps...)
}

// SignalDump triggers an explicit full-fleet flight dump, tagged
// "signal:<reason>" — the manual trigger class next to fault
// transitions and checker detections.
func (nw *Network) SignalDump(reason string) {
	if nw.cfg.Flight == nil {
		return
	}
	nw.cfg.Flight.TriggerDump("signal:"+reason, nw.Now())
}

// Now returns the network's virtual time (µs since Start).
func (nw *Network) Now() sim.Time {
	return sim.Time(time.Since(nw.start).Microseconds()) //lint:allow determinism(live mode runs on the physical clock by design; the DES engine owns the virtual one)
}

// Node returns node i.
func (nw *Network) Node(i int) *Node { return nw.nodes[i] }

// Sense injects a sense event at the node: its goroutine ticks the clock,
// broadcasts the strobe, and the ground-truth log records the true time.
func (n *Node) Sense(varName string, value float64) {
	n.nw.recordTruth(n.ID, varName, value)
	if n.down.Load() {
		// The world changed but the crashed sensor did not observe it;
		// ground truth above still records the change.
		if f := n.nw.fault; f != nil {
			f.Counts.SuppressedSends.Add(1)
		}
		return
	}
	select {
	case n.cmd <- senseCmd{varName: varName, value: value}:
	case <-n.nw.done:
	}
}

func (nw *Network) recordTruth(proc int, varName string, value float64) {
	nw.truthMu.Lock()
	defer nw.truthMu.Unlock()
	nw.truth = append(nw.truth, world.Event{
		Seq: len(nw.truth), At: nw.Now(),
		Object: proc, Attr: varName, New: value, Cause: world.NoCause,
	})
}

// loop is the node goroutine: it serializes sense commands and incoming
// strobes, owning the node's clock without locks — share memory by
// communicating.
func (n *Node) loop(die, dead chan struct{}) {
	defer n.nw.wg.Done()
	defer close(dead)
	for {
		select {
		case <-n.nw.done:
			return
		case <-die:
			return // crashed; recoverNode starts a fresh life
		case cmd := <-n.cmd:
			n.onSense(cmd)
		case m := <-n.in:
			n.onStrobe(m)
		}
	}
}

func (n *Node) onSense(cmd senseCmd) {
	n.seq++
	msg := core.StrobeMsg{Proc: n.ID, Seq: n.seq, Epoch: n.epoch, Var: cmd.varName, Value: cmd.value}
	var ownClock uint64
	if n.vec != nil {
		msg.Vec = n.vec.Strobe() // SVC1
		ownClock = msg.Vec[n.ID]
	} else {
		msg.Scalar = n.sc.Strobe() // SSC1
		ownClock = msg.Scalar
	}
	if fl := n.nw.cfg.Flight; fl != nil {
		fl.Record(flight.Rec{
			Kind: flight.Sense, Proc: int32(n.ID), Peer: flight.NoPeer,
			Epoch: int32(n.epoch), Seq: uint64(n.seq), At: n.nw.Now(),
			Attr: fl.Intern(cmd.varName), Clock: ownClock, Value: cmd.value,
		})
	}
	n.nw.broadcast(n.ID, msg)
}

func (n *Node) onStrobe(m core.StrobeMsg) {
	if n.vec != nil && m.Vec != nil {
		n.vec.OnStrobe(m.Vec) // SVC2
	} else if n.sc != nil && m.Vec == nil {
		n.sc.OnStrobe(m.Scalar) // SSC2
	}
}

// recordMsg stamps one Recv/Drop flight record for a strobe at dst.
func (nw *Network) recordMsg(kind flight.Kind, dst int, m core.StrobeMsg) {
	fl := nw.cfg.Flight
	if fl == nil {
		return
	}
	epoch, seq, clk := m.FlightStamp()
	fl.Record(flight.Rec{
		Kind: kind, Proc: int32(dst), Peer: int32(m.Proc),
		Epoch: int32(epoch), Seq: uint64(seq), At: nw.Now(), PeerClock: clk,
	})
}

// broadcast delivers the strobe to every other node and the checker, each
// copy after an independently sampled delay.
func (nw *Network) broadcast(src int, m core.StrobeMsg) {
	now := nw.Now()
	f := nw.fault
	for _, peer := range nw.nodes {
		if peer.ID == src {
			continue
		}
		peer := peer
		nw.count(m)
		if f != nil && f.Cut(src, peer.ID, now) {
			f.Counts.PartitionDrops.Add(1)
			nw.obsDrops.Inc()
			nw.recordMsg(flight.Drop, peer.ID, m)
			continue
		}
		d, dropped := nw.sampleDelay(src, peer.ID)
		if dropped {
			nw.obsDrops.Inc()
			nw.recordMsg(flight.Drop, peer.ID, m)
			continue
		}
		nw.scheduleDelivery(peer, m, d, now)
		if f != nil {
			if p := f.DupProb(now); p > 0 && nw.chance(p) {
				if d2, dropped2 := nw.sampleDelay(src, peer.ID); !dropped2 {
					f.Counts.Duplicates.Add(1)
					nw.scheduleDelivery(peer, m, d2, now)
				}
			}
		}
	}
	// checker copy
	nw.count(m)
	if f != nil && f.Cut(src, nw.cfg.N, now) {
		f.Counts.PartitionDrops.Add(1)
		nw.obsDrops.Inc()
		nw.recordMsg(flight.Drop, nw.cfg.N, m)
		return
	}
	d, dropped := nw.sampleDelay(src, nw.cfg.N)
	if dropped {
		nw.obsDrops.Inc()
		nw.recordMsg(flight.Drop, nw.cfg.N, m)
		return
	}
	time.AfterFunc(nw.shape(d, now).Std(), func() {
		select {
		case <-nw.done:
			return
		default:
		}
		nw.checkerMu.Lock()
		defer nw.checkerMu.Unlock()
		nw.obsChecker.Inc()
		nw.recordMsg(flight.Recv, nw.cfg.N, m)
		nw.checker.OnStrobe(m, nw.Now())
	})
}

// scheduleDelivery arms the timer-delayed mailbox send for one copy. A
// full mailbox is a counted drop, never a blocked goroutine: the old code
// parked the timer goroutine on `peer.in <- m` until shutdown, so a
// saturated node accumulated one goroutine per overflowing message.
func (nw *Network) scheduleDelivery(peer *Node, m core.StrobeMsg, d sim.Duration, sentAt sim.Time) {
	time.AfterFunc(nw.shape(d, sentAt).Std(), func() {
		if peer.down.Load() {
			if f := nw.fault; f != nil {
				f.Counts.CrashDrops.Add(1)
			}
			nw.obsDrops.Inc()
			nw.recordMsg(flight.Drop, peer.ID, m)
			return
		}
		select {
		case peer.in <- m:
			nw.recordMsg(flight.Recv, peer.ID, m)
			depth := int64(len(peer.in))
			for {
				cur := nw.mailboxHW.Load()
				if depth <= cur || nw.mailboxHW.CompareAndSwap(cur, depth) {
					break
				}
			}
		case <-nw.done:
		default:
			nw.mailboxDrops.Add(1)
			nw.obsMailboxDrops.Inc()
			nw.recordMsg(flight.Drop, peer.ID, m)
		}
	})
}

// shape adds active reorder-window jitter to a sampled delay.
func (nw *Network) shape(d sim.Duration, at sim.Time) sim.Duration {
	f := nw.fault
	if f == nil {
		return d
	}
	if j := f.ReorderJitter(at); j > 0 {
		nw.delayMu.Lock()
		d += sim.Duration(nw.rng.Int63n(int64(j) + 1))
		nw.delayMu.Unlock()
		f.Counts.Reorders.Add(1)
	}
	return d
}

// chance draws one biased coin under the RNG lock.
func (nw *Network) chance(p float64) bool {
	nw.delayMu.Lock()
	defer nw.delayMu.Unlock()
	return nw.rng.Bool(p)
}

func (nw *Network) sampleDelay(src, dst int) (sim.Duration, bool) {
	nw.delayMu.Lock()
	defer nw.delayMu.Unlock()
	return sim.SampleDelay(nw.cfg.Delay, nw.rng, nw.Now(), src, dst)
}

func (nw *Network) count(m core.StrobeMsg) {
	nw.sentMu.Lock()
	nw.sent++
	nw.bytes += int64(m.WireSize())
	nw.sentMu.Unlock()
	nw.obsSends.Inc()
	nw.obsBytes.Add(int64(m.WireSize()))
}

// Results of a live run.
type Results struct {
	Occurrences []core.Occurrence
	Markers     []sim.Time
	Truth       []world.Interval
	Confusion   stats.Confusion
	Horizon     sim.Time
	Sent        int64
	Bytes       int64
}

// Stop shuts the network down after draining in-flight deliveries for the
// settle duration, finishes the checker, and scores against the recorded
// ground truth with tolerance tol.
func (nw *Network) Stop(settle time.Duration, tol sim.Duration) Results {
	sp := nw.cfg.Obs.StartSpanAt("live.stop", nw.Now())
	time.Sleep(settle)
	horizon := nw.Now()
	nw.lifeMu.Lock()
	nw.stopping = true // no fault transition may restart a node from here
	for _, t := range nw.timers {
		t.Stop()
	}
	nw.lifeMu.Unlock()
	nw.stopOnce.Do(func() { close(nw.done) })
	nw.wg.Wait()
	sp.EndAt(nw.Now())
	if nw.Metrics != nil {
		_ = nw.Metrics.Close()
	}

	nw.checkerMu.Lock()
	nw.checker.Finish(horizon)
	occ := nw.checker.Occurrences()
	markers := nw.checker.Markers()
	nw.checkerMu.Unlock()

	nw.truthMu.Lock()
	log := append([]world.Event(nil), nw.truth...)
	nw.truthMu.Unlock()

	res := Results{
		Occurrences: occ, Markers: markers, Horizon: horizon,
	}
	nw.sentMu.Lock()
	res.Sent, res.Bytes = nw.sent, nw.bytes
	nw.sentMu.Unlock()

	if nw.cfg.Pred != nil {
		// the truth log's binding is identity: object index == proc index
		truth := world.Oracle{Pred: nw.cfg.Pred, N: nw.cfg.N, KeysOf: world.IdentityKeys, Obs: nw.cfg.Obs}
		res.Truth = truth.Intervals(log, horizon)
		res.Confusion = core.Score(occ, res.Truth, markers, tol, horizon)
	}
	return res
}
