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
	// component), set once at origination by SendStamped/BroadcastStamped
	// and copied with the message ever after. Flight Recv/Drop records
	// read these plain fields — a flood stamps once per logical message,
	// not once per hop, and the delivery path never type-asserts the
	// payload. Zero for unstamped traffic.
	Stamp flight.Stamp
}

// sendBody is what every link-level copy of one logical direct send
// shares, on both transports: the Message less its destination. One is
// allocated per Send/Broadcast and never written again, so copies on
// different shards may read it concurrently; each copy is the event
// (fire, body, dst) and costs no allocation of its own.
type sendBody struct {
	ID      uint64
	Src     int
	SentAt  sim.Time
	Payload Payload
	Stamp   flight.Stamp
}

// message materialises the copy of b addressed to dst, at delivery.
func (b *sendBody) message(dst int) Message {
	return Message{ID: b.ID, Src: b.Src, From: b.Src, Dst: dst, SentAt: b.SentAt, Payload: b.Payload, Stamp: b.Stamp}
}

// Handler receives delivered messages at a process.
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
	// functions of every direct copy (body *sendBody) and of every flood
	// copy (body *Message, the wave it belongs to).
	fire, fireHop sim.EventFunc
	// dsts is the neighbour scratch of the relay step in progress; a relay
	// schedules and returns without running a handler, so it never nests.
	dsts []int

	// Flood selects hop-by-hop flooding over the overlay for Broadcast;
	// when false, Broadcast sends one direct logical message per peer.
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

// mirrorStats registers the one transport → obs mirror both transports
// share: a collector that, at snapshot time, reads the transport's Stats
// and fault injector through read and stores the four net.* counters and
// the injector's faults.* counts. The hot path stays atomic-free.
func mirrorStats(r *obs.Registry, read func() (Stats, *faults.Injector)) {
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
// mirrorStats) plus the sampled link delay (µs) as a histogram, copied
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
	mirrorStats(r, func() (Stats, *faults.Injector) { return nt.Stats, nt.fault })
	delay := r.Histogram("net.delay_us", obs.DurationBuckets)
	r.RegisterCollector(func(*obs.Registry) { delay.CopyFrom(local) })
}

// SetFlight attaches (or, with nil, detaches) a flight recorder: each
// delivery records a Recv and each drop a Drop at the destination's
// ring, carrying the logical identity stamped into the Message at
// origination (see SendStamped). The sender-side half of a message edge
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

// Send transmits p from src to dst as one logical (direct) message,
// regardless of overlay links; use for checker traffic where L is assumed
// routable. It returns the message ID, or 0 when a fault plan has src
// crashed (a crashed process sends nothing). The message carries no
// flight stamp — payloads with a logical identity go through SendStamped.
func (nt *Net) Send(src, dst int, p Payload) uint64 {
	return nt.SendStamped(src, dst, p, flight.Stamp{})
}

// SendStamped is Send with the payload's logical identity attached: st
// rides in the Message and surfaces as the Epoch/Seq/PeerClock columns
// of the flight Recv/Drop records at the destination. The originating
// sensor passes the epoch, seq and clock it already holds; the
// transport itself never type-asserts payloads, so the stamp costs three
// field copies at origination and nothing per delivery.
func (nt *Net) SendStamped(src, dst int, p Payload, st flight.Stamp) uint64 {
	now := nt.eng.Now()
	if suppressed(nt.fault, src, now) {
		return 0
	}
	body := &sendBody{ID: nt.newID(), Src: src, SentAt: now, Payload: p, Stamp: st}
	nt.transmit(body, dst)
	nt.Stats.countSends(p, 1)
	return body.ID
}

// Broadcast implements the strobe protocols' System-wide_Broadcast: p is
// delivered to every process except src. With Flood unset each peer gets
// an independent direct transmission; with Flood set the message floods
// hop-by-hop over the overlay with duplicate suppression. It returns the
// message ID, or 0 when a fault plan has src crashed. Like Send it
// attaches no flight stamp; strobe traffic uses BroadcastStamped.
func (nt *Net) Broadcast(src int, p Payload) uint64 {
	return nt.BroadcastStamped(src, p, flight.Stamp{})
}

// BroadcastStamped is Broadcast carrying the payload's logical identity
// (see SendStamped). A flood stamps once per logical message — every
// hop's copy inherits the Stamp fields — instead of re-deriving it from
// the payload at each of the O(edges) relay deliveries. A direct broadcast
// allocates the one body its copies share and nothing per copy.
func (nt *Net) BroadcastStamped(src int, p Payload, st flight.Stamp) uint64 {
	now := nt.eng.Now()
	if suppressed(nt.fault, src, now) {
		return 0
	}
	id := nt.newID()
	if nt.Flood {
		nt.seen[src][id] = true
		nt.inflight[id]++ // guard the entry while the first wave schedules
		nt.relay(Message{ID: id, Src: src, From: src, SentAt: now, Payload: p, Stamp: st})
		nt.flightDone(id)
		return id
	}
	body := &sendBody{ID: id, Src: src, SentAt: now, Payload: p, Stamp: st}
	var copies int64
	for dst := 0; dst < nt.N(); dst++ {
		if dst != src {
			nt.transmit(body, dst)
			copies++
		}
	}
	nt.Stats.countSends(p, copies)
	return id
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
func (nt *Net) transmit(body *sendBody, dst int) {
	now := nt.eng.Now()
	d, ok := nt.sampleLink(body.Src, dst, now)
	if !ok {
		nt.recordDrop(dst, body.Src, body.Stamp, now)
		return
	}
	nt.eng.AtFunc(now+d, DeliveryPri, nt.fire, body, dst)
	if d2, dup := DupDelay(nt.fault, nt.delay, nt.rng, body.Src, dst, now); dup {
		nt.eng.AtFunc(now+d2, DeliveryPri, nt.fire, body, dst)
	}
}

// deliverCopy runs at a direct copy's arrival: body is the *sendBody the
// copy was scheduled with, dst the process it is addressed to.
func (nt *Net) deliverCopy(now sim.Time, body any, dst int) {
	b := body.(*sendBody)
	if nt.Stats.crashDropped(nt.fault, dst, now) {
		nt.recordDrop(dst, b.Src, b.Stamp, now)
		return
	}
	nt.handle(b.message(dst), now)
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
	nt.Stats.countSends(m.Payload, copies)
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
	if nt.Stats.crashDropped(nt.fault, dst, now) { // crashed receivers neither deliver nor relay
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
