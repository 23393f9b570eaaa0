// Package live is the second execution engine: instead of the
// deterministic discrete-event simulator, every sensor process is a real
// goroutine and every link delivery is a timer-delayed channel send — the
// natural Go realization of the paper's asynchronous message-passing
// system model (Section 2). Only the substrate is live. Each node
// goroutine runs a core.Sensor (SVC/SSC rules, sequence numbers, crash
// epoch), the checker is a one-region checker.Tree registered as on the
// DES (its deliveries serialized under a lock),
// every link copy takes its fate from network.LinkDelay/DupDelay and is
// counted in a network.Stats, crash/recover transitions come from
// core.ScheduleFaults, and Stop scores through core.FinishAndScore into a
// core.Results, as the DES harnesses do.
//
// Virtual time in live mode is wall-clock microseconds since Start. Runs
// are not bit-reproducible (goroutine scheduling and real timers are not),
// so tests and examples use workloads with wide margins; the DES engine is
// the reproducible harness for experiments.
package live

import (
	"sync"
	"sync/atomic"
	"time"

	"pervasive/internal/checker"
	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/network"
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
	// Obs, if non-nil, receives runtime metrics: the net.* and faults.*
	// counters under the names the DES transports publish, the checker's
	// own, and live.mailbox_depth/_drops/_drained and live.checker_strobes;
	// its time source is set to the network's wall-µs clock. Nil disables
	// instrumentation.
	Obs *obs.Registry
	// MetricsAddr, when set together with Obs, serves the registry over
	// HTTP at /metrics (JSON snapshot) and /debug/vars (expvar) for the
	// duration of the run — e.g. "127.0.0.1:0". The bound address is in
	// Network.Metrics.Addr.
	MetricsAddr string
	// Faults, if non-nil and non-empty, is the deterministic fault plan
	// (package faults). Crash and recover run on the node's goroutine as
	// the sensor's Crash/Rejoin; a rejoin drains whatever is still queued
	// in the mailbox. Fault times are wall-clock µs since Start.
	// Partitions and dup/reorder windows gate deliveries like the DES
	// transport.
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
	// handlers are what core registered through links: each sensor's
	// delivery handler, and the checker's at index N.
	handlers []network.Handler

	checkerMu sync.Mutex
	checker   *checker.Tree

	// linkMu guards the link RNG stream and the transport's counts.
	linkMu sync.Mutex
	rng    *stats.RNG
	stats  network.Stats

	start time.Time

	truthMu sync.Mutex
	truth   []world.Event

	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup

	fault  *faults.Injector
	timers []*time.Timer // pending fault transitions, stopped by Stop

	// mailboxHW is the high-watermark of any node's mailbox depth. The old
	// live.mailbox_depth gauge was Set from every delivery goroutine, so
	// its value was whichever delivery ran last — a lottery, not a metric.
	// Deliveries CAS-max into this atomic instead and a snapshot-time
	// collector publishes it.
	mailboxHW    atomic.Int64
	mailboxDrops atomic.Int64
	drained      atomic.Int64

	// Metrics is the HTTP metrics endpoint when Config.MetricsAddr was
	// set and the listener bound; nil otherwise. Closed by Stop.
	Metrics *obs.MetricsServer

	// dumpMu guards dumps, collected from whatever goroutine fires a
	// flight trigger (fault timer, checker delivery).
	dumpMu sync.Mutex
	dumps  []*flight.Dump

	// obsChecker is resolved once; nil (a no-op) when Config.Obs is nil.
	obsChecker *obs.Counter
}

// Node is one goroutine-backed sensor process.
type Node struct {
	ID int
	nw *Network
	s  *core.Sensor // owned by the node's goroutine
	in chan network.Message
	// cmd carries the sensor's own steps — sense events and fault
	// transitions — onto its goroutine.
	cmd chan func()
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
		cfg:      cfg,
		rng:      stats.NewRNG(cfg.Seed),
		start:    time.Now(), //lint:allow determinism(the live engine's virtual time is wall-clock µs since Start by design; the DES is the reproducible harness)
		done:     make(chan struct{}),
		handlers: make([]network.Handler, cfg.N+1),
		stats:    network.Stats{ByKind: make(map[string]int64)},
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
	nw.obsChecker = cfg.Obs.Counter("live.checker_strobes")
	network.MirrorStats(cfg.Obs, func() (network.Stats, *faults.Injector) {
		nw.linkMu.Lock()
		defer nw.linkMu.Unlock()
		return nw.stats, nw.fault
	})
	cfg.Obs.RegisterCollector(func(r *obs.Registry) {
		hw := nw.mailboxHW.Load()
		r.Gauge("live.mailbox_depth").SetWithMax(hw, hw)
		r.Counter("live.mailbox_drops").Store(nw.mailboxDrops.Load())
		r.Counter("live.mailbox_drained").Store(nw.drained.Load())
	})
	nw.checker = checker.New(checker.Config{N: cfg.N, Pred: cfg.Pred, RaceAware: cfg.Kind == core.VectorStrobe})
	nw.checker.SetObs(cfg.Obs)
	nw.checker.SetFlight(cfg.Flight, cfg.N)
	tx := (*links)(nw)
	core.RegisterTree(tx, cfg.N, nw.checker)
	sensors := core.NewSensors(tx, core.SensorConfig{N: cfg.N, Kind: cfg.Kind, CheckerIdx: cfg.N, Flight: cfg.Flight},
		func(int) core.Transport { return tx })
	for i, s := range sensors {
		nw.nodes = append(nw.nodes, &Node{
			ID: i, nw: nw, s: s,
			in:  make(chan network.Message, cfg.Buffer),
			cmd: make(chan func(), cfg.Buffer),
		})
	}
	core.ScheduleFaults(cfg.Faults, sensors, func(f *faults.Injector) { nw.fault = f }, nw.at, cfg.Obs, cfg.Flight)
	if cfg.MetricsAddr != "" && cfg.Obs != nil {
		cfg.Obs.PublishExpvar("pervasive")
		if srv, err := cfg.Obs.Serve(cfg.MetricsAddr); err == nil {
			nw.Metrics = srv
		}
	}
	for _, n := range nw.nodes {
		nw.wg.Add(1)
		go n.loop()
	}
	return nw
}

// at is the executor core.ScheduleFaults drives: a wall-clock timer that
// posts fn onto node proc's goroutine t µs after Start, through the channel
// sense events take.
func (nw *Network) at(proc int, t sim.Time, fn sim.Handler) {
	n := nw.nodes[proc]
	nw.timers = append(nw.timers, time.AfterFunc(t.Std(), func() {
		n.post(func() { fn(nw.Now()) })
	}))
}

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

// Sense injects a sense event at the node: the ground-truth log records
// the true time, and the node's goroutine runs the sensor's sense step
// (tick the clock, broadcast the strobe).
func (n *Node) Sense(varName string, value float64) {
	nw := n.nw
	nw.recordTruth(n.ID, varName, value)
	if f := nw.fault; f.Down(n.ID, nw.Now()) { // a nil injector is never down
		// The world changed but the crashed sensor did not observe it;
		// ground truth above still records the change.
		f.Counts.SuppressedSends.Add(1)
		return
	}
	n.post(func() { n.s.Sense(nw.Now(), varName, value) })
}

// post queues step for the node's goroutine, behind the steps posted
// before it; after Stop it is dropped.
func (n *Node) post(step func()) {
	select {
	case n.cmd <- step:
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

// loop is the node goroutine: it serializes the sensor's steps and its
// deliveries, so the sensor runs without locks — share memory by
// communicating. A step that bumps the epoch (a rejoin) drains what is
// still queued: it was delivered to the old life, and a reboot loses
// volatile state.
func (n *Node) loop() {
	defer n.nw.wg.Done()
	for {
		select {
		case <-n.nw.done:
			return
		case step := <-n.cmd:
			epoch := n.s.Epoch()
			step()
			if n.s.Epoch() != epoch {
				n.drain()
			}
		case m := <-n.in:
			n.nw.deliver(m)
		}
	}
}

// drain discards the mailbox, counting into live.mailbox_drained.
func (n *Node) drain() {
	for {
		select {
		case <-n.in:
			n.nw.drained.Add(1)
		default:
			return
		}
	}
}

// links is the live engine's core.Transport and core.Receiver: the
// Network itself under a type whose method set core drives, so Network's
// exported surface does not grow. Live copies carry no message ID; the
// sends return 0.
type links Network

// N implements core.Receiver: the sensors plus the checker.
func (l *links) N() int { return l.cfg.N + 1 }

// Register implements core.Receiver.
func (l *links) Register(i int, h network.Handler) { l.handlers[i] = h }

// SendBody implements core.Transport: one copy, to dst.
func (l *links) SendBody(src, dst int, b *network.Body) uint64 {
	nw := (*Network)(l)
	b.Seal(src)
	nw.transmit(b.Message(dst))
	return 0
}

// BroadcastBody implements core.Transport: one copy to every other node,
// then the checker's.
func (l *links) BroadcastBody(src int, b *network.Body) uint64 {
	nw := (*Network)(l)
	b.Seal(src)
	for dst := 0; dst <= nw.cfg.N; dst++ {
		if dst != src {
			nw.transmit(b.Message(dst))
		}
	}
	return 0
}

// transmit sends one link-level copy: counted as the DES transports count
// it, its fate and any duplicate drawn by the network's one link discipline
// on the locked stream, then a timer per delivery.
func (nw *Network) transmit(m network.Message) {
	now := nw.Now()
	nw.linkMu.Lock()
	defer nw.linkMu.Unlock()
	nw.stats.CountSends(m.Payload, 1)
	d, ok := network.LinkDelay(nw.fault, nw.cfg.Delay, nw.rng, m.Src, m.Dst, now)
	if !ok {
		nw.stats.Dropped++
		nw.record(flight.Drop, m)
		return
	}
	time.AfterFunc(d.Std(), func() { nw.arrive(m) }) //lint:allow hotpath(the live engine delivers each copy on a wall-clock timer of its own; it is not the DES kernel)
	if d2, dup := network.DupDelay(nw.fault, nw.cfg.Delay, nw.rng, m.Src, m.Dst, now); dup {
		time.AfterFunc(d2.Std(), func() { nw.arrive(m) }) //lint:allow hotpath(the duplicate's timer, as above)
	}
}

// arrive runs at a copy's arrival, on its timer's goroutine. A destination
// the fault plan has down takes nothing (Stats.CrashDropped, as on the
// DES). The checker applies its copy under its lock; a node's copy goes to
// its mailbox. A full mailbox is a drop counted in live.mailbox_drops
// alone, never a blocked goroutine:
// the old code parked the timer goroutine on `peer.in <- m` until
// shutdown, so a saturated node accumulated one goroutine per overflowing
// message.
func (nw *Network) arrive(m network.Message) {
	select {
	case <-nw.done:
		return
	default:
	}
	nw.linkMu.Lock()
	down := nw.stats.CrashDropped(nw.fault, m.Dst, nw.Now())
	nw.linkMu.Unlock()
	if down {
		nw.record(flight.Drop, m)
		return
	}
	if m.Dst == nw.cfg.N {
		nw.checkerMu.Lock()
		defer nw.checkerMu.Unlock()
		nw.obsChecker.Inc()
		nw.record(flight.Recv, m)
		nw.deliver(m)
		return
	}
	peer := nw.nodes[m.Dst]
	select {
	case peer.in <- m:
		nw.record(flight.Recv, m)
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
		nw.record(flight.Drop, m)
	}
}

// record stamps one Recv/Drop flight record for m at its destination.
func (nw *Network) record(kind flight.Kind, m network.Message) {
	if fl := nw.cfg.Flight; fl != nil {
		fl.Record(flight.Rec{
			Kind: kind, Proc: int32(m.Dst), Peer: int32(m.Src), At: nw.Now(),
			Epoch: m.Stamp.Epoch, Seq: m.Stamp.Seq, PeerClock: m.Stamp.Clock,
		})
	}
}

// deliver counts m delivered and runs its destination's handler.
func (nw *Network) deliver(m network.Message) {
	nw.linkMu.Lock()
	nw.stats.Delivered++
	nw.linkMu.Unlock()
	nw.handlers[m.Dst](m, nw.Now())
}

// Stop shuts the network down after draining in-flight deliveries for the
// settle duration, then finishes the checker and scores it against the
// recorded ground truth with tolerance tol through the spine's
// core.FinishAndScore, as the DES harnesses do.
func (nw *Network) Stop(settle time.Duration, tol sim.Duration) core.Results {
	sp := nw.cfg.Obs.StartSpanAt("live.stop", nw.Now())
	time.Sleep(settle)
	res := core.Results{Horizon: nw.Now()}
	for _, t := range nw.timers {
		t.Stop()
	}
	nw.stopOnce.Do(func() { close(nw.done) })
	nw.wg.Wait()
	sp.EndAt(nw.Now())
	if nw.Metrics != nil {
		_ = nw.Metrics.Close()
	}

	nw.linkMu.Lock()
	res.Net = nw.stats
	nw.linkMu.Unlock()
	nw.truthMu.Lock()
	log := append([]world.Event(nil), nw.truth...)
	nw.truthMu.Unlock()

	// the truth log's binding is identity: object index == proc index
	truth := world.Oracle{Pred: nw.cfg.Pred, N: nw.cfg.N, KeysOf: world.IdentityKeys, Obs: nw.cfg.Obs}
	nw.checkerMu.Lock()
	defer nw.checkerMu.Unlock()
	core.FinishAndScore(&res, nw.checker, log, truth, tol)
	return res
}
