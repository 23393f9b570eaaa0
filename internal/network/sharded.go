package network

import (
	"fmt"

	"pervasive/internal/faults"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// ShardMap is the contiguous spatial partition of process indices over
// shards: processes [i·S/P, (i+1)·S/P) land together, so a grid laid out
// row-major keeps radio neighborhoods mostly shard-local.
type ShardMap struct {
	Procs, Shards int
}

// Of returns the shard owning process p.
func (m ShardMap) Of(p int) int {
	if m.Shards <= 1 {
		return 0
	}
	return p * m.Shards / m.Procs
}

// ShardedNet is the message transport over a sharded engine. Each shard
// sees the transport through its ShardPart facade; same-shard deliveries
// schedule directly into the shard's engine, cross-shard deliveries stage
// through the Shards mailboxes. Both paths carry the same (time, priority)
// key — priority is (source, per-source send counter), unique and
// partition-independent — so the destination executes deliveries in an
// order that does not depend on the shard count. That, plus per-source RNG
// streams for delay sampling (never a shared transport RNG, whose draw
// order would depend on the partition), is the transport's half of the
// byte-determinism proof; the engine's half is the lookahead barrier.
//
// The sharded transport is direct-send only: flooding's shared dedup state
// is inherently cross-shard, and the scale scenarios it serves use
// neighborhood dissemination instead of overlay floods.
type ShardedNet struct {
	sh    *sim.Shards
	topo  Topology
	delay sim.DelayModel
	smap  ShardMap
	parts []*ShardPart

	handlers []Handler
	rngs     []stats.RNG // per-source delay/jitter streams, by value
	seqs     []uint32    // per-source link-transmission counters

	// NeighborScope restricts BroadcastBody to the source's topology
	// neighbors plus AlwaysReach (typically the checker index) — the
	// neighborhood-scoped dissemination that makes p ≥ 10⁴ tractable.
	// Unset, a broadcast reaches every process, exactly like Net's.
	NeighborScope bool
	AlwaysReach   []int

	fault *faults.Injector

	// pool takes back the bodies senders drew from it with GetBody, each
	// when its last copy lands (see ShardPart.land).
	pool BodyPool
}

// ShardPart is one shard's sending surface. It satisfies core.Transport:
// sensors hosted on shard k hold Part(k) and never see the other engines.
type ShardPart struct {
	owner *ShardedNet
	k     int
	eng   *sim.Engine

	// fire is p.deliver bound once: the event function of every copy
	// destined for this shard, whichever shard sent it.
	fire sim.EventFunc
	// dsts is the destination scratch of the send in progress; a send
	// schedules and returns without running a handler, so it never nests.
	dsts []int

	// Stats is this shard's share of the transport counters: sends are
	// counted by the sending shard, deliveries and delivery-side drops by
	// the destination shard, so each block has a single writer. Sum with
	// TotalStats.
	Stats Stats
}

// NewSharded creates a transport over the sharded engine. The shard map
// must cover at least the topology plus any extra direct-send processes
// (the checker); seed roots the per-source RNG streams, independently of
// the engines' own streams.
func NewSharded(sh *sim.Shards, topo Topology, delay sim.DelayModel, smap ShardMap, seed uint64) *ShardedNet {
	if sh.N() > 1 && sim.MinDelayBound(delay) < sh.Lookahead() {
		panic(fmt.Sprintf("network: delay model %v can beat the shard lookahead %v", delay, sh.Lookahead()))
	}
	if smap.Procs < topo.N() {
		panic("network: shard map smaller than topology")
	}
	checkCopyRoom(smap.Procs, "shard map")
	sn := &ShardedNet{
		sh: sh, topo: topo, delay: delay, smap: smap,
		parts:    make([]*ShardPart, sh.N()),
		handlers: make([]Handler, smap.Procs),
		rngs:     make([]stats.RNG, smap.Procs),
		seqs:     make([]uint32, smap.Procs),
	}
	root := stats.NewRNG(seed)
	for i := range sn.rngs {
		sn.rngs[i] = *stats.NewRNG(root.Uint64()) // root.Fork(), kept by value
	}
	for k := range sn.parts {
		p := &ShardPart{owner: sn, k: k, eng: sh.Engine(k)}
		p.fire = p.deliver
		p.Stats.ByKind = make(map[string]int64)
		sn.parts[k] = p
	}
	return sn
}

// N returns the number of processes.
func (sn *ShardedNet) N() int { return len(sn.handlers) }

// Pool returns the pool the transport recycles bodies through; every part
// shares it (Recycler).
func (p *ShardPart) Pool() *BodyPool { return &p.owner.pool }

// Part returns shard k's sending facade.
func (sn *ShardedNet) Part(k int) *ShardPart { return sn.parts[k] }

// Register installs the delivery handler for process i.
func (sn *ShardedNet) Register(i int, h Handler) { sn.handlers[i] = h }

// SetFaults installs (or removes) the fault injector. The injector is
// immutable after construction and its counters are atomic, so one
// instance safely gates every shard.
func (sn *ShardedNet) SetFaults(in *faults.Injector) { sn.fault = in }

// TotalStats sums the per-shard counters; the totals are
// shard-count-invariant for a deterministic workload.
func (sn *ShardedNet) TotalStats() Stats {
	out := Stats{ByKind: make(map[string]int64)}
	for _, p := range sn.parts {
		out.Sent += p.Stats.Sent
		out.Delivered += p.Stats.Delivered
		out.Dropped += p.Stats.Dropped
		out.Bytes += p.Stats.Bytes
		for k, v := range p.Stats.ByKind { //lint:allow determinism(order-insensitive: commutative += into a map keyed by the ranged key; consumers sort before printing)
			out.ByKind[k] += v
		}
	}
	return out
}

// SetObs attaches the shared stats mirror (see MirrorStats) over the
// summed per-shard counters. Per-link delay histograms are not sampled on
// the sharded path — the hot loop stays store-free.
func (sn *ShardedNet) SetObs(r *obs.Registry) {
	if r == nil {
		return
	}
	MirrorStats(r, func() (Stats, *faults.Injector) { return sn.TotalStats(), sn.fault })
}

// priFor mints the (time-tie-break) priority key and message ID for one
// link-level transmission from src: unique, monotone per source, and
// independent of the partition.
func (sn *ShardedNet) priFor(src int) uint64 {
	pri := uint64(src+1)<<32 | uint64(sn.seqs[src])
	sn.seqs[src]++
	return pri
}

// SendBody transmits a direct logical message (see Net.SendBody): the
// one-destination case of send. Returns the message ID, or 0 when a fault
// plan has src crashed.
func (p *ShardPart) SendBody(src, dst int, b *Body) uint64 {
	p.dsts = append(p.dsts[:0], dst) //lint:allow hotpath(the per-part destination scratch: it grows to the widest send once and is reused)
	return p.send(src, -1, b)
}

// Broadcast broadcasts pl from src in a body of its own with no flight
// stamp (see BroadcastBody); the network drill of cmd/bench drives it.
func (p *ShardPart) Broadcast(src int, pl Payload) uint64 {
	return p.BroadcastBody(src, &Body{Payload: pl})
}

// BroadcastBody delivers b to every reachable process except src: all of
// them, or the topology neighborhood plus AlwaysReach under NeighborScope.
// Each destination is an independent link-level transmission with its own
// priority key; the logical message ID is the first key minted.
func (p *ShardPart) BroadcastBody(src int, b *Body) uint64 {
	sn := p.owner
	dsts := p.dsts[:0]
	if sn.NeighborScope && src < sn.topo.N() {
		dsts = append(sn.topo.AppendNeighbors(dsts, src), sn.AlwaysReach...) //lint:allow hotpath(the per-part destination scratch: it grows to the widest broadcast once and is reused)
	} else {
		for dst := 0; dst < sn.N(); dst++ {
			dsts = append(dsts, dst) //lint:allow hotpath(the same scratch)
		}
	}
	p.dsts = dsts
	return p.send(src, src, b)
}

// send transmits b from src to every process in p.dsts except skip, and
// returns its ID, the first priority key minted (0 when src is crashed or
// nothing was addressed). Every copy shares b, so a copy costs no
// allocation; Sent, Bytes and ByKind are bumped once, by the copy count.
// b's copies are counted as on Net (see BodyPool.hold): none can land
// before this event returns, since same-shard copies run after it and
// cross-shard ones after the epoch's barrier.
func (p *ShardPart) send(src, skip int, b *Body) uint64 {
	sn := p.owner
	now := p.eng.Now()
	b.Seal(src)
	if suppressed(sn.fault, src, now) {
		sn.pool.release(b)
		return 0
	}
	var id uint64
	var copies int64
	scheduled := uint32(0)
	for _, dst := range p.dsts {
		if dst == skip {
			continue
		}
		pri := sn.priFor(src)
		if copies == 0 {
			id = pri
			b.id = pri
		}
		scheduled += p.transmit(b, src, dst, pri, now)
		copies++
	}
	p.Stats.CountSends(b.Payload, copies)
	sn.pool.hold(b, scheduled)
	return id
}

// transmit samples the link delay of one copy from the source's own stream
// and schedules its delivery under key pri; inside a duplicate window it
// may schedule a second delivery under a freshly minted key. It returns
// the deliveries it scheduled: 0 for a copy lost on the link, 1, or 2.
func (p *ShardPart) transmit(b *Body, src, dst int, pri uint64, now sim.Time) uint32 {
	sn := p.owner
	r := &sn.rngs[src]
	d, ok := LinkDelay(sn.fault, sn.delay, r, src, dst, now)
	if !ok {
		p.Stats.Dropped++
		return 0
	}
	p.schedule(b, dst, now+d, pri)
	if d2, dup := DupDelay(sn.fault, sn.delay, r, src, dst, now); dup {
		p.schedule(b, dst, now+d2, sn.priFor(src))
		return 2
	}
	return 1
}

// schedule puts one delivery of body to dst on dst's shard: same shard
// directly into the engine, cross shard through the epoch mailbox — both
// under the same (time, pri) key.
func (p *ShardPart) schedule(body *Body, dst int, at sim.Time, pri uint64) {
	sn := p.owner
	if dk := sn.smap.Of(dst); dk == p.k {
		p.eng.AtFunc(at, pri, p.fire, body, dst)
	} else {
		sn.sh.CrossFromFunc(p.k, dk, at, pri, sn.parts[dk].fire, body, dst)
	}
}

// deliver runs at the destination shard: body is the *Body the copy was
// scheduled with, dst the process it is addressed to. The copy lands
// after the handler returns, or at once when dst is crashed.
func (p *ShardPart) deliver(now sim.Time, body any, dst int) {
	sn := p.owner
	b := body.(*Body)
	if !p.Stats.CrashDropped(sn.fault, dst, now) {
		p.Stats.Delivered++
		if h := sn.handlers[dst]; h != nil {
			h(b.Message(dst), now)
		}
	}
	if b.land() {
		sn.pool.release(b)
	}
}
