// Package flight is the always-on causal flight recorder: fixed-capacity
// per-process ring buffers of compact binary event records, stamped by
// the run's own logical clocks rather than wall time. Recording is
// allocation-free and, with the nil *Recorder, free — every exported
// method is a nil-receiver no-op, the same disabled fast path contract
// as internal/obs (enforced by pervalint's fastpath analyzer).
//
// The recorder never keeps a whole-run trace. Each process owns a ring
// of the last K events; a *trigger* — a fault-plan firing, a checker
// detection, or an explicit signal — flushes the rings of the involved
// processes into a Dump: the recent causal context of the thing that
// just happened, ordered by (engine time, process, record order) and
// carrying the strobe epoch, per-process sequence number and logical
// clock component of every event. cmd/tracedump reconstructs the
// happens-before DAG from those stamps (see dag.go).
//
// Two construction modes mirror the two engines: New builds a
// single-threaded recorder for the DES (plain stores, no locks on the
// hot path); NewConcurrent adds a per-ring mutex for the live engine's
// goroutine-per-node execution. Record on a concurrent recorder locks
// only the target process's ring, so nodes never contend except with a
// concurrent Snapshot of their own ring.
package flight

import (
	"sync"

	"pervasive/internal/sim"
)

// Kind is the type of a recorded event.
type Kind uint8

// Event kinds. Sense/Recv/Drop are the network-plane half (recorded by
// sensors and the transport); Apply/Stale/Detect/Clear are the checker
// half; Crash/Recover are fault-plan transitions.
const (
	KindNone Kind = iota
	Sense         // local sense event: clock tick + strobe broadcast
	Recv          // transport delivered a message to this process
	Drop          // transport dropped a message bound for this process
	Apply         // checker applied a strobe to its view
	Stale         // checker discarded a strobe (stale seq/epoch/duplicate)
	Detect        // predicate became true in the checker's view
	Clear         // predicate became false again
	Crash         // fault plan took the process down
	Recover       // process rejoined: fresh clock, bumped epoch
)

var kindNames = [...]string{
	KindNone: "none",
	Sense:    "sense",
	Recv:     "recv",
	Drop:     "drop",
	Apply:    "apply",
	Stale:    "stale",
	Detect:   "detect",
	Clear:    "clear",
	Crash:    "crash",
	Recover:  "recover",
}

// String names the kind (the JSONL wire spelling).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// ParseKind inverts String; unknown names map to KindNone.
func ParseKind(s string) Kind {
	for k, name := range kindNames {
		if name == s && k != int(KindNone) {
			return Kind(k)
		}
	}
	return KindNone
}

// NoPeer marks a record without a counterpart process.
const NoPeer int32 = -1

// Rec is one binary flight record: a fixed-size value with no pointers,
// so ring writes are single struct stores and rings never anchor heap
// garbage. Clock is the *sender-side* logical component of the event
// (the emitting process's own vector entry, or the scalar value);
// PeerClock, on Recv/Apply records, is the counterpart component
// carried by the message — the pair is what lets tracedump check the
// strobe clock rules against the dump.
type Rec struct {
	Kind      Kind
	Proc      int32  // process the event happened at
	Peer      int32  // counterpart process, NoPeer when none
	Epoch     int32  // crash/recovery epoch of the stamped process
	Attr      uint32 // interned attribute/variable name, 0 = none
	Seq       uint64 // per-process, per-epoch sense sequence number
	At        sim.Time
	Clock     uint64
	PeerClock uint64
	Value     float64
}

// Stamped is implemented by transport payloads that carry a logical
// identity (core.StrobeMsg, core.ReportMsg): epoch and seq identify the
// originating sense event, clock is the sender's own logical component
// at that event. The stamp is extracted once, at message origination
// (network.SendStamped / BroadcastStamped carry it in plain Message
// fields from there) — never on the per-delivery path, where an
// interface assertion per record would cost more than the ring store
// itself.
type Stamped interface {
	FlightStamp() (epoch int, seq int, clock uint64)
}

// Stamp is the logical identity of a message as plain values: the field
// layout Rec uses for its Epoch/Seq/PeerClock columns. Transports carry
// a Stamp inside each Message so that delivery- and drop-time records
// are three integer copies, with no payload introspection.
type Stamp struct {
	Epoch int32
	Seq   uint64
	Clock uint64
}

// ring is one process's fixed-capacity event history.
type ring struct {
	buf   []Rec
	next  int    // index of the slot the next Record overwrites
	total uint64 // lifetime records, total > len(buf) means wrapped
}

// Recorder records flight events for n processes. The nil Recorder is
// the disabled fast path: every method is a no-op. Construct with New
// (single-threaded, for the DES) or NewConcurrent (per-ring mutexes,
// for the live engine).
type Recorder struct {
	rings []ring
	locks []sync.Mutex // per-ring; nil in single-threaded mode

	timeBase string // "virtual" (DES) or "wall-us" (live)

	// Attribute interning: Rec stores a uint32 id instead of a string so
	// records stay pointer-free. The table is tiny (bound variable names)
	// and read-mostly; sensors intern once per sense event.
	internMu sync.RWMutex
	names    []string
	ids      map[string]uint32

	trigMu  sync.Mutex
	trigger func(*Dump)
}

// New builds a single-threaded recorder: n processes, the last perProc
// events kept per process. Record and Snapshot must be called from one
// goroutine (the DES thread); use NewConcurrent for the live engine.
func New(n, perProc int) *Recorder {
	return newRecorder(n, perProc, false)
}

// NewConcurrent builds a recorder safe for concurrent Record calls from
// goroutine-per-node engines: each process ring has its own mutex.
func NewConcurrent(n, perProc int) *Recorder {
	return newRecorder(n, perProc, true)
}

func newRecorder(n, perProc int, concurrent bool) *Recorder {
	if n <= 0 {
		n = 1
	}
	if perProc <= 0 {
		perProc = DefaultPerProc
	}
	r := &Recorder{
		rings:    make([]ring, n),
		names:    []string{""}, // id 0 = no attribute
		ids:      make(map[string]uint32, 8),
		timeBase: "virtual",
	}
	for i := range r.rings {
		r.rings[i].buf = make([]Rec, perProc)
	}
	if concurrent {
		r.locks = make([]sync.Mutex, n)
	}
	return r
}

// DefaultPerProc is the per-process ring capacity when the caller does
// not choose one: enough to hold a detection's recent causal context
// (last ~quarter second of a busy sensor) without mattering for memory.
const DefaultPerProc = 256

// Concurrent reports whether the recorder was built with NewConcurrent.
func (r *Recorder) Concurrent() bool {
	return r != nil && r.locks != nil
}

// SetTimeBase labels the recorder's time base: "virtual" for DES engine
// time (the default), "wall-us" for the live engine's wall-clock
// microseconds. Dumps embed the label so tracedump never compares
// spans across bases.
func (r *Recorder) SetTimeBase(base string) {
	if r == nil {
		return
	}
	r.timeBase = base
}

// SetTrigger installs the dump sink invoked by TriggerDump. The harness
// uses it to attach the obs snapshot and collect dumps; fn runs on the
// triggering goroutine.
func (r *Recorder) SetTrigger(fn func(*Dump)) {
	if r == nil {
		return
	}
	r.trigMu.Lock()
	r.trigger = fn
	r.trigMu.Unlock()
}

// Intern maps an attribute/variable name to its stable record id.
// Id 0 is reserved for "no attribute"; Intern("") returns 0.
func (r *Recorder) Intern(name string) uint32 {
	if r == nil || name == "" {
		return 0
	}
	r.internMu.RLock()
	id, ok := r.ids[name]
	r.internMu.RUnlock()
	if ok {
		return id
	}
	r.internMu.Lock()
	defer r.internMu.Unlock()
	if id, ok := r.ids[name]; ok {
		return id
	}
	id = uint32(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = id
	return id
}

// AttrName inverts Intern; unknown ids return "".
func (r *Recorder) AttrName(id uint32) string {
	if r == nil || id == 0 {
		return ""
	}
	r.internMu.RLock()
	defer r.internMu.RUnlock()
	if int(id) >= len(r.names) {
		return ""
	}
	return r.names[id]
}

// Record appends one event to its process's ring, overwriting the
// oldest once full. Out-of-range processes are dropped silently — the
// recorder is diagnostics, it must never turn into a panic source.
// The single-threaded path is two bounds checks and a struct store.
func (r *Recorder) Record(rec Rec) {
	if r == nil {
		return
	}
	p := uint(rec.Proc)
	if p >= uint(len(r.rings)) {
		return
	}
	if r.locks != nil {
		r.recordLocked(p, rec)
		return
	}
	r.rings[p].put(rec)
}

// recordLocked is the concurrent-mode slow path. Keeping the mutex
// calls out of Record keeps Record under the inlining budget, so the
// DES hot path (transport Recv/Drop records) stores the Rec straight
// into the ring with no intermediate copy.
func (r *Recorder) recordLocked(p uint, rec Rec) {
	r.locks[p].Lock()
	r.rings[p].put(rec)
	r.locks[p].Unlock()
}

// RecordUnlocked is Record minus the concurrent-mode dispatch, small
// enough to inline into single-threaded hot paths: the Rec the caller
// builds is stored straight into the ring with no intermediate copy or
// call. It is only for callers that own the recorder's thread — the DES
// transport and sensors, where the engine guarantees one goroutine.
// On a recorder built with NewConcurrent it skips the ring lock, so
// concurrent callers must keep using Record (the transport dispatches
// on Concurrent() once per record).
func (r *Recorder) RecordUnlocked(rec Rec) {
	if r == nil {
		return
	}
	p := uint(rec.Proc)
	if p >= uint(len(r.rings)) {
		return
	}
	g := &r.rings[p]
	g.buf[g.next] = rec
	g.next++
	if g.next == len(g.buf) {
		g.next = 0
	}
	g.total++
}

func (g *ring) put(rec Rec) {
	g.buf[g.next] = rec
	g.next++
	if g.next == len(g.buf) {
		g.next = 0
	}
	g.total++
}

// snapRing copies one ring's contents oldest-first (caller holds the
// lock in concurrent mode).
func (g *ring) snap(out []Rec) []Rec {
	if g.total >= uint64(len(g.buf)) {
		out = append(out, g.buf[g.next:]...)
		return append(out, g.buf[:g.next]...)
	}
	return append(out, g.buf[:g.next]...)
}

// TriggerDump snapshots the rings of the involved processes (all of
// them when procs is empty) into a Dump and hands it to the SetTrigger
// sink. trigger names what fired (e.g. "detect", "fault:crash(2)",
// "signal"); at is the engine time of the firing.
func (r *Recorder) TriggerDump(trigger string, at sim.Time, procs ...int) {
	if r == nil {
		return
	}
	d := r.Snapshot(trigger, at, procs...)
	r.trigMu.Lock()
	fn := r.trigger
	r.trigMu.Unlock()
	if fn != nil {
		fn(d)
	}
}
