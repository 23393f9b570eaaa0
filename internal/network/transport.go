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

// Message is one network-plane message in flight or delivered.
type Message struct {
	ID      uint64 // unique per logical send/broadcast (shared by flood copies)
	Src     int    // originating process
	From    int    // previous hop (== Src for direct delivery)
	Dst     int    // destination process
	SentAt  sim.Time
	Hops    int
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

	id     uint64
	sentAt sim.Time
	src    int32
	// state is the body's life in one word: sentBit once sealed, pooledBit
	// on a body from a BodyPool, and below them the copies a recycling
	// transport has scheduled and not yet landed (see ShardPart.land).
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
	b := &struct { //lint:allow hotpath(a send's one allocation by contract: senders on a transport that does not recycle, and a BodyPool that is empty — the first bodies of a run, and those a collection cleared)
		Body
		p P
	}{Body: Body{Stamp: st}, p: p}
	b.Payload = PP(&b.p)
	return &b.Body
}

// Seal marks b sent from src at now, before any copy of it is scheduled —
// a suppressed send included — and panics if b was sent before. The DES
// transports then set the message ID; the live engine's copies carry none.
func (b *Body) Seal(src int, now sim.Time) {
	if b.state&sentBit != 0 {
		panic("network: a body is sent once")
	}
	b.src, b.sentAt, b.state = int32(src), now, b.state|sentBit
}

// Message materialises the copy of b addressed to dst, at delivery.
func (b *Body) Message(dst int) Message {
	src := int(b.src)
	return Message{ID: b.id, Src: src, From: src, Dst: dst, SentAt: b.sentAt, Payload: b.Payload, Stamp: b.Stamp}
}

// Handler receives delivered messages at a process. On a recycling
// transport (see Recycler) a handler must not keep m.Payload, or anything
// it points to, after it returns: the body behind it goes back to its pool
// once its last copy has landed, and the next send overwrites it. A
// handler that needs the content later copies it, as every handler a
// fleet's checker registers does. Two classic handlers keep what they are
// handed — the conjunctive checker queues the interval stamps, the flat
// checker keeps a dense strobe's stamp as the sender's last — and may
// because of the senders' gate, not the transport: core.NewSensors hands
// a recycler's pool to a DiffVectorStrobe fleet alone, and a sensor with a
// Local replica does not take from it (core's
// TestOnlyDiffVectorSensesTakePooledBodies). network.Net and the live
// engine reuse no body at all.
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
	// functions of every direct copy (body *Body) and of every flood
	// copy (body *Message, the wave it belongs to).
	fire, fireHop sim.EventFunc
	// dsts is the neighbour scratch of the relay step in progress; a relay
	// schedules and returns without running a handler, so it never nests.
	dsts []int

	// Flood selects hop-by-hop flooding over the overlay for BroadcastBody;
	// when false, BroadcastBody sends one direct logical message per peer.
	Flood bool

	seen []map[uint64]bool // per-process flood duplicate suppression
	// inflight refcounts the scheduled (not yet fired) deliveries of each
	// flood message ID. When a count reaches zero no further copy of that
	// ID can ever be created (relays only originate from deliveries of
	// the same ID), so its seen entries are pruned — the horizon that
	// keeps the dedup state bounded by the concurrently in-flight
	// broadcasts instead of growing with the run's total broadcast count.
	inflight map[uint64]int

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

// Faults returns the installed fault injector (nil when none).
func (nt *Net) Faults() *faults.Injector { return nt.fault }

// New creates a transport over the topology with the given delay model.
func New(eng *sim.Engine, topo Topology, delay sim.DelayModel) *Net {
	n := topo.N()
	nt := &Net{
		eng: eng, topo: topo, delay: delay,
		rng:      eng.RNG().Fork(),
		handlers: make([]Handler, n),
		seen:     make([]map[uint64]bool, n),
		inflight: make(map[uint64]int),
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

// Register installs the delivery handler for process i (replacing any
// previous handler).
func (nt *Net) Register(i int, h Handler) { nt.handlers[i] = h }

// SendBody transmits b from src to dst as one logical (direct) message,
// regardless of overlay links; use for checker traffic where L is assumed
// routable. It returns the message ID, or 0 when a fault plan has src
// crashed (a crashed process sends nothing). b.Stamp rides in the Message
// and surfaces as the Epoch/Seq/PeerClock columns of the flight Recv/Drop
// records at the destination: the transport never type-asserts payloads,
// so the stamp costs nothing per delivery.
func (nt *Net) SendBody(src, dst int, b *Body) uint64 {
	now := nt.eng.Now()
	b.Seal(src, now)
	if suppressed(nt.fault, src, now) {
		return 0
	}
	b.id = nt.newID()
	nt.transmit(b, dst)
	nt.Stats.CountSends(b.Payload, 1)
	return b.id
}

// BroadcastBody implements the strobe protocols' System-wide_Broadcast: b
// is delivered to every process except src. With Flood unset each peer
// gets an independent direct transmission, all sharing b; with Flood set
// the message floods hop-by-hop over the overlay with duplicate
// suppression, every hop's copy inheriting b's Stamp. It returns the
// message ID, or 0 when a fault plan has src crashed.
func (nt *Net) BroadcastBody(src int, b *Body) uint64 {
	now := nt.eng.Now()
	b.Seal(src, now)
	if suppressed(nt.fault, src, now) {
		return 0
	}
	b.id = nt.newID()
	if nt.Flood {
		nt.seen[src][b.id] = true
		nt.inflight[b.id]++      // guard the entry while the first wave schedules
		nt.relay(b.Message(src)) // the wave's Dst is set per copy at delivery
		nt.flightDone(b.id)
		return b.id
	}
	var copies int64
	for dst := 0; dst < nt.N(); dst++ {
		if dst != src {
			nt.transmit(b, dst)
			copies++
		}
	}
	nt.Stats.CountSends(b.Payload, copies)
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
// window it may schedule a second delivery of the same copy.
func (nt *Net) transmit(b *Body, dst int) {
	now, src := nt.eng.Now(), int(b.src)
	d, ok := nt.sampleLink(src, dst, now)
	if !ok {
		nt.recordDrop(dst, src, b.Stamp, now)
		return
	}
	nt.eng.AtFunc(now+d, DeliveryPri, nt.fire, b, dst)
	if d2, dup := DupDelay(nt.fault, nt.delay, nt.rng, src, dst, now); dup {
		nt.eng.AtFunc(now+d2, DeliveryPri, nt.fire, b, dst)
	}
}

// deliverCopy runs at a direct copy's arrival: body is the *Body the copy
// was scheduled with, dst the process it is addressed to.
func (nt *Net) deliverCopy(now sim.Time, body any, dst int) {
	b := body.(*Body)
	if nt.Stats.CrashDropped(nt.fault, dst, now) {
		nt.recordDrop(dst, int(b.src), b.Stamp, now)
		return
	}
	nt.handle(b.Message(dst), now)
}

// handle invokes the destination's handler (fault gating already done).
// The Recv record lands before the handler runs, so a checker's Apply
// follows its Recv in the destination's ring order.
func (nt *Net) handle(m Message, now sim.Time) {
	nt.Stats.Delivered++
	// The Recv record is built in place rather than through a helper: this
	// is the one per-delivery site (drops go through recordDrop), and with
	// RecordUnlocked inlined here the compiler stores the Rec straight into
	// the ring — no call frame, no intermediate copy. That is what keeps
	// the recorder inside the kernel bench's <5% budget (~6ns per delivery;
	// a call-based path measures more than double).
	if r := nt.flightRec; r != nil {
		rec := flight.Rec{
			Kind: flight.Recv, Proc: int32(m.Dst), Peer: int32(m.Src), At: now,
			Epoch: m.Stamp.Epoch, Seq: m.Stamp.Seq, PeerClock: m.Stamp.Clock,
		}
		if r.Concurrent() {
			r.Record(rec)
		} else {
			r.RecordUnlocked(rec)
		}
	}
	if h := nt.handlers[m.Dst]; h != nil {
		h(m, now)
	}
}

// relay floods m one hop on: from m.From, which holds it at m.Hops, to
// every current neighbour that has not seen it. The copies of one relay
// step share one wave body — m with this hop's From and Hops, Dst unset —
// allocated with the first copy scheduled; each is the event
// (fireHop, wave, dst). Receivers both consume and re-relay. Dedup is done
// at delivery time, not at scheduling time: a copy lost in flight leaves
// later copies via other paths eligible, which is what lets redundant
// flood paths mask single-link loss.
func (nt *Net) relay(m Message) {
	now := nt.eng.Now()
	m.Hops++
	var wave *Message
	var copies int64
	nt.dsts = nt.topo.AppendNeighbors(nt.dsts[:0], m.From)
	for _, j := range nt.dsts {
		if nt.seen[j][m.ID] {
			continue
		}
		copies++
		d, ok := nt.sampleLink(m.From, j, now)
		if !ok {
			nt.recordDrop(j, m.Src, m.Stamp, now)
			continue
		}
		if wave == nil {
			w := m
			wave = &w
		}
		nt.inflight[m.ID]++
		nt.eng.AtFunc(now+d, DeliveryPri, nt.fireHop, wave, j)
	}
	nt.Stats.CountSends(m.Payload, copies)
}

// deliverHop runs at a flood copy's arrival: body is the wave (*Message)
// the copy belongs to, dst the neighbour it was sent to. The copy's
// in-flight reference is released last, after any re-relay has taken its
// own.
func (nt *Net) deliverHop(now sim.Time, body any, dst int) {
	wave := body.(*Message)
	defer nt.flightDone(wave.ID)
	if nt.seen[dst][wave.ID] {
		return // duplicate arrived first via another path
	}
	if nt.Stats.CrashDropped(nt.fault, dst, now) { // crashed receivers neither deliver nor relay
		nt.recordDrop(dst, wave.Src, wave.Stamp, now)
		return
	}
	nt.seen[dst][wave.ID] = true
	hop := *wave
	hop.Dst = dst
	nt.handle(hop, now)
	hop.From = dst
	nt.relay(hop)
}

// flightDone releases one scheduled copy of a flood message; the last
// release prunes the ID from every per-process dedup set (see the
// inflight field). Dropped copies are never scheduled, so they hold no
// reference.
func (nt *Net) flightDone(id uint64) {
	if n := nt.inflight[id] - 1; n > 0 {
		nt.inflight[id] = n
		return
	}
	delete(nt.inflight, id)
	for i := range nt.seen {
		delete(nt.seen[i], id)
	}
}

// dedupEntries reports the total number of live flood-dedup entries
// across all processes (test hook for the bounded-memory guarantee).
func (nt *Net) dedupEntries() int {
	n := 0
	for i := range nt.seen {
		n += len(nt.seen[i])
	}
	return n
}
