package core

import (
	"fmt"

	"pervasive/internal/clock"
	"pervasive/internal/flight"
	"pervasive/internal/network"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/trace"
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
type Sensor struct {
	// What a delivered strobe reads comes first, so the merge starts on the
	// cache line the slab index lands on: liveness, the clock, the local
	// replica and the trace.
	down bool // crashed: sense nothing, merge nothing
	Kind ClockKind
	ID   int
	// dvec is the differential strobe clock behind the representation
	// interface: dense below clock.DenseSparseCutoff, sorted-pairs sparse
	// above (or as the builder chose). The sparse state lives in sparse, by
	// value — dvec then points into the sensor itself, so a merge leaves
	// the slab entry only for the components. Rejoin preserves the
	// representation.
	dvec   clock.VectorState
	sparse clock.SparseStrobeVector
	vec    *clock.StrobeVector
	sc     *clock.StrobeScalar

	// Local, if non-nil, is this sensor's own checker replica: since
	// strobes are system-wide broadcasts, every sensor can evaluate the
	// global predicate itself and actuate locally, instead of relying on
	// the distinguished root P0. The replica consumes the sensor's own
	// sense events immediately and remote strobes on receipt.
	Local *StrobeChecker

	tr *trace.Trace // optional event trace
	fl *flight.Recorder

	eng        *sim.Engine
	net        Transport
	checkerIdx int
	n          int // fleet size (for fresh clocks on Rejoin)
	phys       clock.Physical

	seq   int
	epoch int // bumped on each Rejoin; carried in strobes

	// Conjunctive-mode state: the local conjunct, the sensed values it reads
	// (nil without a conjunct — nothing else reads them) and its current
	// interval.
	localConj   predicate.Cond
	vals        map[string]float64
	conjOpen    bool
	openStamp   clock.Vector
	openAt      sim.Time
	intervalIdx int

	// StampLog accumulates (stamp, true time) per sense event for lattice
	// analysis when enabled.
	LogStamps bool
	Stamps    []clock.Vector
	Times     []sim.Time
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
	Trace     *trace.Trace
	LogStamps bool
	// Flight, if non-nil, records each sense event — the sender-side
	// half of the flight recorder's message edges (the transport records
	// the receiving half). Nil costs one branch per sense.
	Flight *flight.Recorder
}

// NewSensors builds the fleet and registers each sensor's message handler
// on the transport, which must have at least N+1 nodes (the extra one being
// the checker). place names where sensor i runs: the engine that executes
// its events and the sending surface it transmits through — the same pair
// for every sensor on the single-engine kernel, the owning shard's engine
// and ShardPart on the sharded one. The fleet is carved from one slab, so
// neighbouring sensors are neighbouring memory and the collector sees one
// object, not N.
func NewSensors(net Receiver, cfg SensorConfig, place func(i int) (*sim.Engine, Transport)) []*Sensor {
	if net.N() < cfg.N+1 {
		panic(fmt.Sprintf("core: transport has %d nodes, need %d sensors + checker",
			net.N(), cfg.N))
	}
	out := make([]*Sensor, cfg.N)
	slab := make([]Sensor, cfg.N)
	for i := 0; i < cfg.N; i++ {
		eng, tx := place(i)
		s := &slab[i]
		*s = Sensor{
			ID: i, Kind: cfg.Kind, n: cfg.N,
			eng: eng, net: tx, checkerIdx: cfg.CheckerIdx,
			localConj: cfg.LocalConj,
			tr:        cfg.Trace,
			fl:        cfg.Flight,
			LogStamps: cfg.LogStamps,
		}
		if cfg.LocalConj != nil {
			s.vals = make(map[string]float64)
		}
		switch cfg.Kind {
		case VectorStrobe:
			s.vec = clock.NewStrobeVector(i, cfg.N)
		case ScalarStrobe:
			s.sc = &clock.StrobeScalar{}
		case DiffVectorStrobe:
			s.dvec = clock.NewVectorState(&s.sparse, i, cfg.N)
		case PhysicalReport:
			if i < len(cfg.Phys) {
				s.phys = cfg.Phys[i]
			} else {
				s.phys = clock.EpsilonSynced{}
			}
		}
		net.Register(i, s.onMessage)
		out[i] = s
	}
	return out
}

// Bind subscribes the sensor to object obj's attribute attr, exposing it
// as variable varName at this sensor's process index.
func (s *Sensor) Bind(w *world.World, obj int, attr, varName string) {
	w.Subscribe(obj, attr, func(ev world.Event) {
		s.onSense(varName, ev.New)
	})
}

// onSense handles one sense (n) event: tick the clock, emit control
// traffic, maintain the conjunct interval.
func (s *Sensor) onSense(varName string, value float64) {
	if s.down {
		return // a crashed process observes nothing and sends nothing
	}
	now := s.eng.Now()
	s.seq++
	if s.vals != nil {
		s.vals[varName] = value
	}

	var stamp clock.Vector
	var ownClock uint64 // this sensor's logical component at the event
	switch s.Kind {
	case VectorStrobe:
		stamp = s.vec.Strobe() // SVC1
		ownClock = stamp[s.ID]
		msg := StrobeMsg{Proc: s.ID, Seq: s.seq, Epoch: s.epoch, Var: varName, Value: value, Vec: stamp}
		s.net.BroadcastStamped(s.ID, msg, flight.Stamp{Epoch: int32(s.epoch), Seq: uint64(s.seq), Clock: ownClock})
		if s.Local != nil {
			s.Local.OnStrobe(msg, now)
		}
	case ScalarStrobe:
		sv := s.sc.Strobe() // SSC1
		ownClock = sv
		msg := StrobeMsg{Proc: s.ID, Seq: s.seq, Epoch: s.epoch, Var: varName, Value: value, Scalar: sv}
		s.net.BroadcastStamped(s.ID, msg, flight.Stamp{Epoch: int32(s.epoch), Seq: uint64(s.seq), Clock: ownClock})
		if s.Local != nil {
			s.Local.OnStrobe(msg, now)
		}
	case DiffVectorStrobe:
		sparse := s.dvec.Strobe() // SVC1 with differential wire format
		ownClock = s.dvec.OwnClock()
		// Materializing the full vector is O(n); only pay for it when a
		// consumer actually wants dense stamps. At scale (sparse clocks,
		// no trace) a sense event touches O(active peers) state only.
		if s.tr != nil || s.LogStamps || s.localConj != nil {
			stamp = s.dvec.Snapshot()
		}
		msg := StrobeMsg{Proc: s.ID, Seq: s.seq, Epoch: s.epoch, Var: varName, Value: value, Sparse: sparse}
		s.net.BroadcastStamped(s.ID, msg, flight.Stamp{Epoch: int32(s.epoch), Seq: uint64(s.seq), Clock: ownClock})
		if s.Local != nil {
			s.Local.OnStrobe(msg, now)
		}
	case PhysicalReport:
		// Physical reports carry no logical clock; the stamp is just the
		// per-process seq (matching ReportMsg.FlightStamp).
		s.net.SendStamped(s.ID, s.checkerIdx, ReportMsg{
			Proc: s.ID, Seq: s.seq, Var: varName, Value: value,
			TS: s.phys.Read(now),
		}, flight.Stamp{Seq: uint64(s.seq)})
	}
	if s.tr != nil {
		s.tr.Append(trace.Record{
			Proc: s.ID, Type: trace.Sense, At: now,
			Attr: varName, Value: value, Vector: stamp,
		})
	}
	if s.fl != nil {
		s.fl.Record(flight.Rec{
			Kind: flight.Sense, Proc: int32(s.ID), Peer: flight.NoPeer,
			Epoch: int32(s.epoch), Seq: uint64(s.seq), At: now,
			Attr: s.fl.Intern(varName), Clock: ownClock, Value: value,
		})
	}
	if s.LogStamps && stamp != nil {
		s.Stamps = append(s.Stamps, stamp)
		s.Times = append(s.Times, now)
	}
	s.trackConjunct(now, stamp)
}

// trackConjunct opens/closes the local-conjunct-true interval and reports
// closed intervals to the checker.
func (s *Sensor) trackConjunct(now sim.Time, stamp clock.Vector) {
	if s.localConj == nil {
		return
	}
	holds := s.localConj.Holds(localState{proc: s.ID, vals: s.vals})
	switch {
	case holds && !s.conjOpen:
		s.conjOpen = true
		s.openStamp = stamp.Clone()
		s.openAt = now
	case !holds && s.conjOpen:
		s.conjOpen = false
		s.net.Send(s.ID, s.checkerIdx, IntervalMsg{
			Proc: s.ID, Index: s.intervalIdx,
			Open: s.openStamp, Close: stamp.Clone(),
			OpenAt: s.openAt, CloseAt: now,
		})
		s.intervalIdx++
	}
}

// FlushConjunct closes a still-open conjunct interval at the horizon so
// trailing occurrences are reported. Call once after the run.
func (s *Sensor) FlushConjunct(horizon sim.Time) {
	if s.localConj == nil || !s.conjOpen {
		return
	}
	s.conjOpen = false
	var closeStamp clock.Vector
	if s.vec != nil {
		closeStamp = s.vec.Snapshot()
	}
	s.net.Send(s.ID, s.checkerIdx, IntervalMsg{
		Proc: s.ID, Index: s.intervalIdx,
		Open: s.openStamp, Close: closeStamp,
		OpenAt: s.openAt, CloseAt: horizon,
	})
	s.intervalIdx++
}

// onMessage merges incoming strobes into the local clock (rules SVC2 /
// SSC2). Note the receiver does not tick — the defining difference from
// causal clocks (Section 4.2.3).
func (s *Sensor) onMessage(m network.Message, now sim.Time) {
	if s.down {
		return // defensive: the transport already gates crashed receivers
	}
	strobe, ok := m.Payload.(StrobeMsg)
	if !ok {
		return
	}
	switch s.Kind {
	case VectorStrobe:
		if strobe.Vec != nil {
			s.vec.OnStrobe(strobe.Vec)
		}
	case ScalarStrobe:
		s.sc.OnStrobe(strobe.Scalar)
	case DiffVectorStrobe:
		if strobe.Sparse != nil {
			s.dvec.OnStrobe(strobe.Sparse)
		}
	}
	if s.Local != nil {
		s.Local.OnStrobe(strobe, now)
	}
	if s.tr != nil {
		s.tr.Append(trace.Record{
			Proc: s.ID, Type: trace.Receive, At: now, Peer: strobe.Proc,
		})
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
	s.conjOpen = false
	clear(s.vals)
	switch s.Kind {
	case VectorStrobe:
		s.vec = clock.NewStrobeVector(s.ID, s.n)
	case ScalarStrobe:
		s.sc = &clock.StrobeScalar{}
	case DiffVectorStrobe:
		// Fresh clock in the same representation the sensor was built
		// with; the sparse one is re-initialised where it lies.
		if sp, sparse := s.dvec.(*clock.SparseStrobeVector); sparse {
			sp.Init(s.ID, s.n)
		} else {
			s.dvec = clock.NewDiffStrobeVector(s.ID, s.n)
		}
	}
}

// ClockStateBytes estimates the resident footprint of the sensor's logical
// clock state — the quantity the sparse representation keeps O(active
// peers) instead of O(n).
func (s *Sensor) ClockStateBytes() int {
	switch {
	case s.dvec != nil:
		return s.dvec.StateBytes()
	case s.vec != nil:
		return 8 * s.n
	default:
		return 8
	}
}

// Epoch returns the sensor's current crash/recovery epoch.
func (s *Sensor) Epoch() int { return s.epoch }

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
