package network

import (
	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// Payload is the content of a network-plane message. WireSize is the
// payload's on-air size in bytes, used by the overhead experiments (E7);
// Kind is a short tag for traces and per-kind statistics.
type Payload interface {
	WireSize() int
	Kind() string
}

// Message is one network-plane message as its handler receives it: seven
// words, so a delivery passes it in registers.
type Message struct {
	Src     int // originating process
	Dst     int // destination process
	Payload Payload

	// Stamp is the payload's logical identity (epoch, seq, sender clock
	// component), set once at origination in the Body and copied with the
	// message ever after. Flight Recv/Drop records read these plain fields
	// — a flood stamps once per logical message, not once per hop, and the
	// delivery path never type-asserts the payload. Zero for unstamped
	// traffic.
	Stamp flight.Stamp
}

// Body is one logical send: what every link-level copy of it shares, on
// every transport — the Message less its destination. The sender fills
// Payload and Stamp (NewBody builds both in the one allocation a send
// costs; a BodyPool hands out a recycled one); the transport sets the id,
// source and send time when it sends. From then on the body is immutable,
// because copies on other shards read it concurrently, so each body is
// sent once: a second SendBody or BroadcastBody of it panics. Each copy is
// the event (fire, body, dst) and costs no allocation of its own.
type Body struct {
	Payload Payload
	// Stamp is the payload's logical identity, carried into every copy's
	// Message (see Message.Stamp).
	Stamp flight.Stamp

	id  uint64
	src int32
	// state is the body's life in one word: sentBit once sealed, pooledBit
	// on a body from a BodyPool, and below them the copies the transport
	// has scheduled and not yet landed (see land).
	state uint32
}

const (
	sentBit   = 1 << 31
	pooledBit = 1 << 30
	copyMask  = pooledBit - 1 // the outstanding-copy count of state
)

// NewBody returns a body carrying a copy of p and its logical identity st.
// The body and the copy are one allocation, and Payload points at the
// copy, so a payload type implements Payload on its pointer and travels by
// pointer only.
func NewBody[P any, PP interface {
	*P
	Payload
}](p P, st flight.Stamp) *Body {
	b := &struct { //lint:allow hotpath(a send's one allocation by contract, through GetBody: a BodyPool that is empty — the first bodies of a run, and those a collection cleared — and the senders no pool serves: a Local replica, the live engine's links)
		Body
		p P
	}{Body: Body{Stamp: st}, p: p}
	b.Payload = PP(&b.p)
	return &b.Body
}

// Seal marks b sent from src, before any copy of it is scheduled — a
// suppressed send included — and panics if b was sent before. The DES
// transports then set the message ID; the live engine's copies carry none.
func (b *Body) Seal(src int) {
	if b.state&sentBit != 0 {
		panic("network: a body is sent once")
	}
	b.src, b.state = int32(src), b.state|sentBit
}

// Message materialises the copy of b addressed to dst, at delivery.
func (b *Body) Message(dst int) Message {
	return Message{Src: int(b.src), Dst: dst, Payload: b.Payload, Stamp: b.Stamp}
}

// Handler receives delivered messages at a process. On a recycling
// transport (see Recycler: both DES transports) a handler must not keep
// m.Payload, or anything it points to, after it returns: the body behind
// it goes back to its pool once its last copy has landed, and the next
// send overwrites it. A handler that needs the content later copies it, as
// the checker tree and the flat checker do with every stamp they keep and
// the conjunctive checker with every interval it queues.
type Handler func(m Message, now sim.Time)

// DeliveryPri is the event priority of message deliveries on the
// single-heap engine. Local events (world mutations, sensor timers) are
// scheduled at priority 0 and therefore sort ahead of same-instant
// deliveries — the same convention the sharded kernel's mailbox merge
// uses, and the tie-break that makes a recorded workload replay through
// any engine reproduce the original interleaving.
const DeliveryPri = 1

// Stats accumulates transport-level counters.
type Stats struct {
	Sent      int64 // link-level transmissions attempted
	Delivered int64
	Dropped   int64
	Bytes     int64 // payload bytes transmitted (per link-level send)
	ByKind    map[string]int64
}

// headerBytes is the fixed per-message header size both transports add to
// every link-level transmission's byte count.
const headerBytes = 8

// Net is the message transport of the network plane. It is not safe for
// concurrent use; it belongs to the single-threaded DES.
type Net struct {
	eng   *sim.Engine
	topo  Topology
	delay sim.DelayModel
	rng   *stats.RNG

	handlers []Handler
	nextID   uint64

	// fire and fireHop are deliverCopy and deliverHop bound once: the event
	// functions of every direct copy and of every flood copy, each the
	// event (fn, body, dst).
	fire, fireHop sim.EventFunc
	// dsts is the neighbour scratch of the relay step in progress; a relay
	// schedules and returns without running a handler, so it never nests.
	dsts []int

	// Flood selects hop-by-hop flooding over the overlay for BroadcastBody;
	// when false, BroadcastBody sends one direct logical message per peer.
	Flood bool

	// seen is the per-process flood duplicate suppression. A flood's seen
	// entries are pruned when its body's last scheduled copy lands: no
	// further copy of that ID can then be created (relays only originate
	// from deliveries of the same ID), so the dedup state stays bounded by
	// the broadcasts in flight instead of growing with the run.
	seen []map[uint64]bool

	// pool takes back the bodies senders drew from it with GetBody, each
	// when its last copy lands (see land).
	pool BodyPool

	// fault, when non-nil, gates this transport on a fault plan: crashed
	// processes neither send, relay, nor take deliveries; partitioned
	// pairs drop; dup/reorder windows shape delays. Nil costs one branch.
	fault *faults.Injector

	Stats Stats

	// obsDelay samples per-link delays when SetObs attached a registry.
	// Like the Stats block it is plain, unsynchronized state: the
	// transport belongs to the single-threaded DES, so counters are
	// published by a snapshot-time collector rather than paid for with
	// atomics on every message.
	obsDelay *obs.LocalHist

	// flightRec, when non-nil, records every delivery (Recv) and drop
	// (Drop) at the destination's ring. Nil costs one branch per event.
	flightRec *flight.Recorder
}

// MirrorStats registers the one transport → obs mirror every transport
// shares: a collector that, at snapshot time, reads the transport's Stats
// and fault injector through read and stores the four net.* counters and
// the injector's faults.* counts. The hot path stays atomic-free.
func MirrorStats(r *obs.Registry, read func() (Stats, *faults.Injector)) {
	var (
		sent      = r.Counter("net.sent")
		delivered = r.Counter("net.delivered")
		dropped   = r.Counter("net.dropped")
		bytes     = r.Counter("net.bytes")
	)
	r.RegisterCollector(func(r *obs.Registry) {
		t, f := read()
		sent.Store(t.Sent)
		delivered.Store(t.Delivered)
		dropped.Store(t.Dropped)
		bytes.Store(t.Bytes)
		f.EachCount(func(name string, v int64) { r.Counter(name).Store(v) })
	})
}

// SetObs attaches runtime metrics: the shared stats mirror (see
// MirrorStats) plus the sampled link delay (µs) as a histogram, copied
// from a local, unsynchronized histogram at snapshot time. SetObs(nil)
// stops delay sampling; values already mirrored into a previous registry
// remain there.
func (nt *Net) SetObs(r *obs.Registry) {
	if r == nil {
		nt.obsDelay = nil
		return
	}
	local := obs.NewLocalHist(obs.DurationBuckets)
	nt.obsDelay = local
	MirrorStats(r, func() (Stats, *faults.Injector) { return nt.Stats, nt.fault })
	delay := r.Histogram("net.delay_us", obs.DurationBuckets)
	r.RegisterCollector(func(*obs.Registry) { delay.CopyFrom(local) })
}

// SetFlight attaches (or, with nil, detaches) a flight recorder: each
// delivery records a Recv and each drop a Drop at the destination's
// ring, carrying the logical identity the sender stamped into the Body
// (see Message.Stamp). The sender-side half of a message edge
// is the sensor's own Sense record — the transport records only the
// receiving end, keeping the per-message cost to one branch + one ring
// store within the kernel bench's <5% overhead budget.
func (nt *Net) SetFlight(r *flight.Recorder) { nt.flightRec = r }

// recordDrop stamps one Drop record at dst's ring for a lost copy of the
// message src originated under logical identity st; a no-op without a
// recorder. Deliveries build their Recv record in place (see handle).
func (nt *Net) recordDrop(dst, src int, st flight.Stamp, now sim.Time) {
	r := nt.flightRec
	if r == nil {
		return
	}
	rec := flight.Rec{
		Kind: flight.Drop, Proc: int32(dst), Peer: int32(src), At: now,
		Epoch: st.Epoch, Seq: st.Seq, PeerClock: st.Clock,
	}
	if r.Concurrent() {
		r.Record(rec)
		return
	}
	r.RecordUnlocked(rec)
}

// SetFaults installs (or, with nil, removes) the fault injector gating
// this transport. See package faults for the semantics.
func (nt *Net) SetFaults(in *faults.Injector) { nt.fault = in }

// New creates a transport over the topology with the given delay model.
func New(eng *sim.Engine, topo Topology, delay sim.DelayModel) *Net {
	n := topo.N()
	checkCopyRoom(n, "topology")
	nt := &Net{
		eng: eng, topo: topo, delay: delay,
		rng:      eng.RNG().Fork(),
		handlers: make([]Handler, n),
		seen:     make([]map[uint64]bool, n),
	}
	nt.fire, nt.fireHop = nt.deliverCopy, nt.deliverHop
	nt.Stats.ByKind = make(map[string]int64)
	for i := range nt.seen {
		nt.seen[i] = make(map[uint64]bool)
	}
	return nt
}

// N returns the number of processes.
func (nt *Net) N() int { return len(nt.handlers) }

// Pool returns the pool the transport recycles bodies through (Recycler).
func (nt *Net) Pool() *BodyPool { return &nt.pool }

// Register installs the delivery handler for process i (replacing any
// previous handler).
func (nt *Net) Register(i int, h Handler) { nt.handlers[i] = h }

// SendBody transmits b from src to dst as one logical (direct) message,
// regardless of overlay links; use for checker traffic where L is assumed
// routable. It returns the message ID, or 0 when a fault plan has src
// crashed (a crashed process sends nothing). b.Stamp rides in the Message
// and surfaces as the Epoch/Seq/PeerClock columns of the flight Recv/Drop
// records at the destination: the transport never type-asserts payloads,
// so the stamp costs nothing per delivery. b goes back to the transport's
// pool when its last copy lands, or at once when none was scheduled, a
// suppressed send included (see BodyPool.hold).
func (nt *Net) SendBody(src, dst int, b *Body) uint64 {
	now := nt.eng.Now()
	b.Seal(src)
	if suppressed(nt.fault, src, now) {
		nt.pool.release(b)
		return 0
	}
	b.id = nt.newID()
	scheduled := nt.transmit(b, dst)
	nt.Stats.CountSends(b.Payload, 1)
	nt.pool.hold(b, scheduled)
	return b.id
}

// BroadcastBody implements the strobe protocols' System-wide_Broadcast: b
// is delivered to every process except src. With Flood unset each peer
// gets an independent direct transmission, all sharing b; with Flood set
// the message floods hop-by-hop over the overlay with duplicate
// suppression, every hop's copy sharing b too. It returns the message ID,
// or 0 when a fault plan has src crashed. b's copy count is kept as
// SendBody's.
func (nt *Net) BroadcastBody(src int, b *Body) uint64 {
	now := nt.eng.Now()
	b.Seal(src)
	if suppressed(nt.fault, src, now) {
		nt.pool.release(b)
		return 0
	}
	b.id = nt.newID()
	if nt.Flood {
		nt.seen[src][b.id] = true
		nt.relay(b, src)
		if b.state&copyMask == 0 {
			nt.retire(b)
		}
		return b.id
	}
	var copies int64
	var scheduled uint32
	for dst := 0; dst < nt.N(); dst++ {
		if dst != src {
			scheduled += nt.transmit(b, dst)
			copies++
		}
	}
	nt.Stats.CountSends(b.Payload, copies)
	nt.pool.hold(b, scheduled)
	return b.id
}

func (nt *Net) newID() uint64 {
	nt.nextID++
	return nt.nextID
}

// sampleLink decides the fate of one link-level transmission from → to at
// now on the transport's one RNG stream (see LinkDelay). ok is false when
// the copy is lost (already counted as dropped; the caller records the
// flight Drop).
func (nt *Net) sampleLink(from, to int, now sim.Time) (d sim.Duration, ok bool) {
	d, ok = LinkDelay(nt.fault, nt.delay, nt.rng, from, to, now)
	if !ok {
		nt.Stats.Dropped++
		return 0, false
	}
	nt.obsDelay.Observe(float64(d))
	return d, true
}

// transmit schedules one direct copy of body to dst; inside a duplicate
// window it may schedule a second delivery of the same copy. It returns
// the deliveries it scheduled: 0 for a copy lost on the link, 1, or 2.
func (nt *Net) transmit(b *Body, dst int) uint32 {
	now, src := nt.eng.Now(), int(b.src)
	d, ok := nt.sampleLink(src, dst, now)
	if !ok {
		nt.recordDrop(dst, src, b.Stamp, now)
		return 0
	}
	nt.eng.AtFunc(now+d, DeliveryPri, nt.fire, b, dst)
	if d2, dup := DupDelay(nt.fault, nt.delay, nt.rng, src, dst, now); dup {
		nt.eng.AtFunc(now+d2, DeliveryPri, nt.fire, b, dst)
		return 2
	}
	return 1
}

// deliverCopy runs at a direct copy's arrival: body is the *Body the copy
// was scheduled with, dst the process it is addressed to. The copy lands
// after the handler returns, or at once when dst is crashed.
func (nt *Net) deliverCopy(now sim.Time, body any, dst int) {
	b := body.(*Body)
	if nt.Stats.CrashDropped(nt.fault, dst, now) {
		nt.recordDrop(dst, int(b.src), b.Stamp, now)
	} else {
		nt.handle(b, dst, now)
	}
	if b.land() {
		nt.pool.release(b)
	}
}

// handle delivers b's copy at dst to the destination's handler (fault
// gating already done). The Recv record lands before the handler runs, so
// a checker's Apply follows its Recv in the destination's ring order. The
// Message is built once, in the handler's argument registers.
func (nt *Net) handle(b *Body, dst int, now sim.Time) {
	nt.Stats.Delivered++
	// The Recv record is built in place rather than through a helper: this
	// is the one per-delivery site (drops go through recordDrop), and with
	// RecordUnlocked inlined here the compiler stores the Rec straight into
	// the ring — no call frame, no intermediate copy. That is what keeps
	// the recorder inside the kernel bench's <5% budget (~6ns per delivery;
	// a call-based path measures more than double).
	if r := nt.flightRec; r != nil {
		rec := flight.Rec{
			Kind: flight.Recv, Proc: int32(dst), Peer: b.src, At: now,
			Epoch: b.Stamp.Epoch, Seq: b.Stamp.Seq, PeerClock: b.Stamp.Clock,
		}
		if r.Concurrent() {
			r.Record(rec)
		} else {
			r.RecordUnlocked(rec)
		}
	}
	if h := nt.handlers[dst]; h != nil {
		h(b.Message(dst), now)
	}
}

// relay floods b one hop on, from process from to every current neighbour
// that has not seen it. Each copy is the event (fireHop, b, dst) and
// counts against b, so a relay allocates nothing. Receivers both consume
// and re-relay. Dedup is done at delivery time, not at scheduling time: a
// copy lost in flight leaves later copies via other paths eligible, which
// is what lets redundant flood paths mask single-link loss.
func (nt *Net) relay(b *Body, from int) {
	now := nt.eng.Now()
	var copies int64
	nt.dsts = nt.topo.AppendNeighbors(nt.dsts[:0], from)
	for _, j := range nt.dsts {
		if nt.seen[j][b.id] {
			continue
		}
		copies++
		d, ok := nt.sampleLink(from, j, now)
		if !ok {
			nt.recordDrop(j, int(b.src), b.Stamp, now)
			continue
		}
		b.state++
		nt.eng.AtFunc(now+d, DeliveryPri, nt.fireHop, b, j)
	}
	nt.Stats.CountSends(b.Payload, copies)
}

// deliverHop runs at a flood copy's arrival: body is the flood's *Body,
// dst the neighbour the copy was sent to. The copy lands last, after any
// re-relay has counted its own copies, so the flood's count cannot reach
// zero while one of its copies is still to be scheduled.
func (nt *Net) deliverHop(now sim.Time, body any, dst int) {
	b := body.(*Body)
	switch {
	case nt.seen[dst][b.id]: // a duplicate arrived first via another path
	case nt.Stats.CrashDropped(nt.fault, dst, now): // crashed receivers neither deliver nor relay
		nt.recordDrop(dst, int(b.src), b.Stamp, now)
	default:
		nt.seen[dst][b.id] = true
		nt.handle(b, dst, now)
		nt.relay(b, dst)
	}
	if b.land() {
		nt.retire(b)
	}
}

// retire ends a flood whose last copy has landed: its ID is pruned from
// every per-process dedup set (see the seen field), then b is released.
func (nt *Net) retire(b *Body) {
	for i := range nt.seen {
		delete(nt.seen[i], b.id)
	}
	nt.pool.release(b)
}
