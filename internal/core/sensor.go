package core

import (
	"fmt"
	"math"

	"pervasive/internal/clock"
	"pervasive/internal/flight"
	"pervasive/internal/network"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/world"
)

// ClockKind selects the time-implementation option of Section 3.2.1 that a
// sensor fleet runs.
type ClockKind int

// Supported clock kinds.
const (
	// VectorStrobe: strobe vector clocks (SVC1/SVC2), broadcast per event.
	VectorStrobe ClockKind = iota
	// ScalarStrobe: strobe scalar clocks (SSC1/SSC2), broadcast per event.
	ScalarStrobe
	// PhysicalReport: ε-synchronized physical clocks; sensors report
	// timestamped events directly to the checker (no broadcast).
	PhysicalReport
	// DiffVectorStrobe: strobe vector clocks with Singhal–Kshemkalyani
	// differential broadcast — semantically the vector protocol, with
	// O(changed) instead of O(n) strobes on the wire.
	DiffVectorStrobe
)

// String names the clock kind.
func (k ClockKind) String() string {
	switch k {
	case VectorStrobe:
		return "strobe-vector"
	case ScalarStrobe:
		return "strobe-scalar"
	case DiffVectorStrobe:
		return "strobe-diff-vector"
	default:
		return "physical"
	}
}

// Sensor is one sensor/actuator process of the network plane. It observes
// bound world-plane attributes (sense events), maintains its clock, emits
// the protocol's control traffic, and — in conjunctive mode — tracks the
// truth intervals of its local conjunct.
//
// The struct is one slab entry and holds what a diff-vector fleet touches
// per sensor; what every sensor of the fleet shares sits behind f (see
// fleet), and everything only the classic stack reads behind c (see
// classic).
type Sensor struct {
	// What a delivered strobe reads comes first, so the merge starts on the
	// cache line the slab index lands on: liveness, the clock, the local
	// replica and the fleet's shared settings.
	down bool  // crashed: sense nothing, merge nothing
	ID   int32 // process index; a clock refuses a fleet past MaxInt32
	// sparse is the differential strobe clock of a DiffVectorStrobe fleet,
	// by value, so a merge leaves the slab entry only for the components.
	sparse clock.SparseStrobeVector

	// Local, if non-nil, is this sensor's own checker replica: since
	// strobes are system-wide broadcasts, every sensor can evaluate the
	// global predicate itself and actuate locally, instead of relying on
	// the distinguished root P0. The replica consumes the sensor's own
	// sense events immediately and remote strobes on receipt.
	Local *StrobeChecker

	f   *fleet
	net Transport // per sensor: each live node holds its own links

	seq   int32 // sense events this epoch; past MaxInt32 a sense panics
	epoch int32 // bumped on each Rejoin; carried in strobes

	c *classic // nil unless the fleet runs a classic mode (see NewSensors)
}

// fleet is what every sensor of one fleet shares: NewSensors builds one
// and points each slab entry at it.
type fleet struct {
	kind ClockKind
	n    int // fleet size (for fresh clocks on Rejoin)
	fl   *flight.Recorder
}

// errSeqBound is the panic for a sense event past the 2^31-1 a sensor's
// 32-bit sequence number counts in one epoch.
const errSeqBound = "core: sensor sequence number past 2^31-1 in one epoch"

// classic is a sensor's state that only the classic stack reads: the dense
// and scalar strobe clocks, the physical clock, the conjunct and the run
// record's sense events. NewSensors allocates the fleet's blocks as one
// slab, and only for a fleet that needs them — a kind other than
// DiffVectorStrobe, a LocalConj or Record — so a sharded fleet's sensor is
// its slab entry plus its clock words.
type classic struct {
	vec        *clock.StrobeVector
	sc         *clock.StrobeScalar
	phys       clock.Physical
	checkerIdx int

	// Conjunctive-mode state: the local conjunct, the sensed values it reads
	// (nil without a conjunct — nothing else reads them) and its current
	// interval.
	localConj   predicate.Cond
	vals        map[string]float64
	conjOpen    bool
	openStamp   clock.Vector
	openAt      sim.Time
	intervalIdx int

	// record keeps every sense event, stamped, in senses: this sensor's
	// share of the run record (see Harness.RunRecord).
	record bool
	senses []flight.Event
}

// SensorConfig configures a sensor fleet.
type SensorConfig struct {
	N          int       // number of sensors
	Kind       ClockKind // clock/protocol family
	CheckerIdx int       // network index of the checker process P0
	// Phys supplies each sensor's physical clock (PhysicalReport mode).
	Phys []clock.EpsilonSynced
	// LocalConj, if non-nil, turns on conjunctive interval tracking; the
	// conjunct is evaluated on the sensor's own variables (its Proc index
	// is remapped to this sensor).
	LocalConj predicate.Cond
	// Record keeps every sense event with its stamps for the run record
	// (see Harness.RunRecord); it gives the fleet classic blocks.
	Record bool
	// Flight, if non-nil, records each sense event — the sender-side
	// half of the flight recorder's message edges (the transport records
	// the receiving half). Nil costs one branch per sense.
	Flight *flight.Recorder
}

// NewSensors builds the fleet and registers its message handler on the
// transport, which must have at least N+1 nodes (the extra one being the
// checker). place names the sending surface sensor i transmits through —
// the one Net on the single-engine kernel, the owning shard's ShardPart on
// the sharded one, the live engine's links. A sensor holds no engine: each
// step takes its time from the event that drives it. The fleet is carved
// from one slab, so neighbouring sensors are neighbouring memory and the
// collector sees one object, not N; the classic blocks, when the fleet
// needs them, are a second slab. One handler serves every sensor: it finds
// the receiver by the delivered copy's Dst, which every transport sets.
func NewSensors(net Receiver, cfg SensorConfig, place func(i int) Transport) []*Sensor {
	if net.N() < cfg.N+1 {
		panic(fmt.Sprintf("core: transport has %d nodes, need %d sensors + checker",
			net.N(), cfg.N))
	}
	out := make([]*Sensor, cfg.N)
	slab := make([]Sensor, cfg.N)
	var blocks []classic
	if cfg.Kind != DiffVectorStrobe || cfg.LocalConj != nil || cfg.Record {
		blocks = make([]classic, cfg.N)
	}
	f := &fleet{kind: cfg.Kind, n: cfg.N, fl: cfg.Flight}
	deliver := func(m network.Message, now sim.Time) { slab[m.Dst].onMessage(m, now) }
	for i := 0; i < cfg.N; i++ {
		s := &slab[i]
		*s = Sensor{ID: int32(i), f: f, net: place(i)}
		if blocks != nil {
			s.c = &blocks[i]
			*s.c = classic{checkerIdx: cfg.CheckerIdx, localConj: cfg.LocalConj, record: cfg.Record}
			if cfg.LocalConj != nil {
				s.c.vals = make(map[string]float64)
			}
		}
		switch cfg.Kind {
		case VectorStrobe:
			s.c.vec = clock.NewStrobeVector(i, cfg.N)
		case ScalarStrobe:
			s.c.sc = &clock.StrobeScalar{}
		case DiffVectorStrobe:
			s.sparse.Init(i, cfg.N)
		case PhysicalReport:
			if i < len(cfg.Phys) {
				s.c.phys = cfg.Phys[i]
			} else {
				s.c.phys = clock.EpsilonSynced{}
			}
		}
		net.Register(i, deliver)
		out[i] = s
	}
	return out
}

// Bind subscribes the sensor to object obj's attribute attr, exposing it
// as variable varName at this sensor's process index. The sense happens at
// the world event's time.
func (s *Sensor) Bind(w *world.World, obj int, attr, varName string) {
	w.Subscribe(obj, attr, func(ev world.Event) {
		s.Sense(ev.At, varName, ev.New)
	})
}

// Sense handles one sense (n) event at now: tick the clock, emit control
// traffic, maintain the conjunct interval.
func (s *Sensor) Sense(now sim.Time, varName string, value float64) {
	if s.down {
		return // a crashed process observes nothing and sends nothing
	}
	if s.seq == math.MaxInt32 {
		panic(errSeqBound)
	}
	s.seq++

	f, id := s.f, int(s.ID)
	var stamp clock.Vector
	var ownClock uint64 // this sensor's logical component at the event
	msg := StrobeMsg{Proc: id, Seq: int(s.seq), Epoch: int(s.epoch), Var: varName, Value: value}
	switch f.kind {
	case VectorStrobe:
		stamp = s.c.vec.Strobe() // SVC1
		ownClock = stamp[id]
		msg.Vec = stamp
	case ScalarStrobe:
		msg.Scalar = s.c.sc.Strobe() // SSC1
		ownClock = msg.Scalar
	case DiffVectorStrobe:
		msg.Sparse = s.sparse.Strobe() // SVC1 with differential wire format
		ownClock = s.sparse.OwnClock()
		// Materializing the full vector is O(n); only pay for it when a
		// consumer actually wants dense stamps — the run record or the
		// conjunct, the only reasons this kind has a classic block. Without
		// them a sense event touches O(active peers) state only.
		if s.c != nil {
			stamp = s.sparse.Snapshot()
		}
	case PhysicalReport:
		// Physical reports carry no logical clock; the stamp is just the
		// per-process seq.
		s.net.SendBody(id, s.c.checkerIdx, network.NewBody(ReportMsg{
			Proc: id, Seq: int(s.seq), Var: varName, Value: value,
			TS: s.c.phys.Read(now),
		}, flight.Stamp{Seq: uint64(s.seq)}))
	}
	if f.kind != PhysicalReport {
		s.net.BroadcastBody(id, network.NewBody(msg, flight.Stamp{Epoch: s.epoch, Seq: uint64(s.seq), Clock: ownClock}))
		if s.Local != nil {
			s.Local.OnStrobe(msg, now)
		}
	}
	if f.fl != nil {
		f.fl.Record(flight.Rec{
			Kind: flight.Sense, Proc: s.ID, Peer: flight.NoPeer,
			Epoch: s.epoch, Seq: uint64(s.seq), At: now,
			Attr: f.fl.Intern(varName), Clock: ownClock, Value: value,
		})
	}
	if c := s.c; c != nil {
		if c.vals != nil {
			c.vals[varName] = value
		}
		if c.record {
			c.senses = append(c.senses, flight.Event{
				Kind: flight.Sense.String(), Proc: id, At: now, Peer: int(flight.NoPeer),
				Epoch: int(s.epoch), Seq: uint64(s.seq), Attr: varName, Value: value,
				Clock: ownClock, Vector: stamp,
			})
		}
		s.trackConjunct(now, stamp)
	}
}

// trackConjunct opens/closes the local-conjunct-true interval and reports
// closed intervals to the checker. The sensor has a classic block.
func (s *Sensor) trackConjunct(now sim.Time, stamp clock.Vector) {
	c := s.c
	if c.localConj == nil {
		return
	}
	holds := c.localConj.Holds(localState{proc: int(s.ID), vals: c.vals})
	switch {
	case holds && !c.conjOpen:
		c.conjOpen = true
		c.openStamp = stamp.Clone()
		c.openAt = now
	case !holds && c.conjOpen:
		c.conjOpen = false
		s.net.SendBody(int(s.ID), c.checkerIdx, network.NewBody(IntervalMsg{
			Proc: int(s.ID), Index: c.intervalIdx,
			Open: c.openStamp, Close: stamp.Clone(),
			OpenAt: c.openAt, CloseAt: now,
		}, flight.Stamp{}))
		c.intervalIdx++
	}
}

// FlushConjunct closes a still-open conjunct interval at the horizon so
// trailing occurrences are reported. Call once after the run.
func (s *Sensor) FlushConjunct(horizon sim.Time) {
	c := s.c
	if c == nil || c.localConj == nil || !c.conjOpen {
		return
	}
	c.conjOpen = false
	var closeStamp clock.Vector
	if c.vec != nil {
		closeStamp = c.vec.Snapshot()
	}
	s.net.SendBody(int(s.ID), c.checkerIdx, network.NewBody(IntervalMsg{
		Proc: int(s.ID), Index: c.intervalIdx,
		Open: c.openStamp, Close: closeStamp,
		OpenAt: c.openAt, CloseAt: horizon,
	}, flight.Stamp{}))
	c.intervalIdx++
}

// onMessage merges incoming strobes into the local clock (rules SVC2 /
// SSC2). Note the receiver does not tick — the defining difference from
// causal clocks (Section 4.2.3).
func (s *Sensor) onMessage(m network.Message, now sim.Time) {
	if s.down {
		return // defensive: the transport already gates crashed receivers
	}
	strobe, ok := m.Payload.(*StrobeMsg)
	if !ok {
		return
	}
	switch s.f.kind {
	case VectorStrobe:
		if strobe.Vec != nil {
			s.c.vec.OnStrobe(strobe.Vec)
		}
	case ScalarStrobe:
		s.c.sc.OnStrobe(strobe.Scalar)
	case DiffVectorStrobe:
		if strobe.Sparse != nil {
			s.sparse.OnStrobe(strobe.Sparse)
		}
	}
	if s.Local != nil {
		s.Local.OnStrobe(*strobe, now)
	}
}

// Crash takes the sensor down: until Rejoin it ignores sense events and
// incoming strobes. Volatile protocol state (clock, seq) is conceptually
// lost at this instant; Rejoin rebuilds it fresh.
func (s *Sensor) Crash() { s.down = true }

// Rejoin brings a crashed sensor back with a fresh strobe clock, Seq
// restarting from 1 and a bumped epoch — the wire-visible signal that
// lets the checker separate the reboot from a stale reordered strobe.
// Locally cached variable values are also lost (re-sensed on the next
// world event), as is any open conjunct interval.
func (s *Sensor) Rejoin() {
	s.down = false
	s.seq = 0
	s.epoch++
	if c := s.c; c != nil {
		c.conjOpen = false
		clear(c.vals)
	}
	switch id, n := int(s.ID), s.f.n; s.f.kind {
	case VectorStrobe:
		s.c.vec = clock.NewStrobeVector(id, n)
	case ScalarStrobe:
		s.c.sc = &clock.StrobeScalar{}
	case DiffVectorStrobe:
		s.sparse.Init(id, n) // fresh clock, where the old one lay
	}
}

// ClockStateBytes estimates the resident footprint of the sensor's logical
// clock state — the quantity the sparse representation keeps O(active
// peers) instead of O(n).
func (s *Sensor) ClockStateBytes() int {
	switch s.f.kind {
	case DiffVectorStrobe:
		return s.sparse.StateBytes()
	case VectorStrobe:
		return 8 * s.f.n
	default:
		return 8
	}
}

// Epoch returns the sensor's current crash/recovery epoch.
func (s *Sensor) Epoch() int { return int(s.epoch) }

// localState adapts a sensor's local variables to predicate.State; any
// process index in the conjunct resolves to this sensor's values.
type localState struct {
	proc int
	vals map[string]float64
}

// Get implements predicate.State.
func (l localState) Get(_ int, name string) float64 { return l.vals[name] }

// NumProcs implements predicate.State.
func (l localState) NumProcs() int { return l.proc + 1 }
