package network

import (
	"fmt"

	"pervasive/internal/faults"
	"pervasive/internal/flight"
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
	rngs     []*stats.RNG // per-source delay/jitter streams
	seqs     []uint32     // per-source link-transmission counters

	// NeighborScope restricts Broadcast to the source's topology neighbors
	// plus AlwaysReach (typically the checker index) — the
	// neighborhood-scoped dissemination that makes p ≥ 10⁴ tractable.
	// Unset, Broadcast reaches every process, exactly like Net.
	NeighborScope bool
	AlwaysReach   []int

	fault *faults.Injector
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
	sn := &ShardedNet{
		sh: sh, topo: topo, delay: delay, smap: smap,
		parts:    make([]*ShardPart, sh.N()),
		handlers: make([]Handler, smap.Procs),
		rngs:     make([]*stats.RNG, smap.Procs),
		seqs:     make([]uint32, smap.Procs),
	}
	root := stats.NewRNG(seed)
	for i := range sn.rngs {
		sn.rngs[i] = root.Fork()
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
		for k, v := range p.Stats.ByKind { //lint:allow determtaint(order-insensitive: commutative += into a map keyed by the ranged key; consumers sort before printing)
			out.ByKind[k] += v
		}
	}
	return out
}

// SetObs attaches the shared stats mirror (see mirrorStats) over the
// summed per-shard counters. Per-link delay histograms are not sampled on
// the sharded path — the hot loop stays store-free.
func (sn *ShardedNet) SetObs(r *obs.Registry) {
	if r == nil {
		return
	}
	mirrorStats(r, func() (Stats, *faults.Injector) { return sn.TotalStats(), sn.fault })
}

// priFor mints the (time-tie-break) priority key and message ID for one
// link-level transmission from src: unique, monotone per source, and
// independent of the partition.
func (sn *ShardedNet) priFor(src int) uint64 {
	pri := uint64(src+1)<<32 | uint64(sn.seqs[src])
	sn.seqs[src]++
	return pri
}

// N returns the number of processes (core.Transport surface).
func (p *ShardPart) N() int { return p.owner.N() }

// Send transmits a direct logical message (see Net.Send). Returns the
// message ID, or 0 when a fault plan has src crashed.
func (p *ShardPart) Send(src, dst int, pl Payload) uint64 {
	return p.SendStamped(src, dst, pl, flight.Stamp{})
}

// SendStamped is Send with the payload's logical identity attached: the
// one-destination case of send.
func (p *ShardPart) SendStamped(src, dst int, pl Payload, st flight.Stamp) uint64 {
	p.dsts = append(p.dsts[:0], dst)
	return p.send(src, -1, pl, st)
}

// Broadcast delivers pl to every reachable process except src: all of them,
// or the topology neighborhood plus AlwaysReach under NeighborScope.
func (p *ShardPart) Broadcast(src int, pl Payload) uint64 {
	return p.BroadcastStamped(src, pl, flight.Stamp{})
}

// BroadcastStamped is Broadcast carrying the payload's logical identity.
// Each destination is an independent link-level transmission with its own
// priority key; the logical message ID is the first key minted.
func (p *ShardPart) BroadcastStamped(src int, pl Payload, st flight.Stamp) uint64 {
	sn := p.owner
	dsts := p.dsts[:0]
	if sn.NeighborScope && src < sn.topo.N() {
		dsts = append(sn.topo.AppendNeighbors(dsts, src), sn.AlwaysReach...)
	} else {
		for dst := 0; dst < sn.N(); dst++ {
			dsts = append(dsts, dst)
		}
	}
	p.dsts = dsts
	return p.send(src, src, pl, st)
}

// send transmits one logical message from src to every process in p.dsts
// except skip, and returns its ID (0 when src is crashed or nothing was
// addressed). The body is allocated with the first copy and shared by the
// rest, so a copy costs no allocation; Sent, Bytes and ByKind are bumped
// once, by the copy count.
func (p *ShardPart) send(src, skip int, pl Payload, st flight.Stamp) uint64 {
	sn := p.owner
	now := p.eng.Now()
	if f := sn.fault; f != nil && f.Down(src, now) {
		f.Counts.SuppressedSends.Add(1)
		return 0
	}
	var body *sendBody
	var copies int64
	for _, dst := range p.dsts {
		if dst == skip {
			continue
		}
		pri := sn.priFor(src)
		if body == nil {
			body = &sendBody{ID: pri, Src: src, SentAt: now, Payload: pl, Stamp: st}
		}
		p.transmit(body, dst, pri, now)
		copies++
	}
	if body == nil {
		return 0
	}
	p.Stats.Sent += copies
	p.Stats.Bytes += copies * int64(pl.WireSize()+headerBytes)
	p.Stats.ByKind[pl.Kind()] += copies
	return body.ID
}

// transmit samples the link delay of one copy from the source's own stream
// and schedules its delivery under key pri; inside a duplicate window it
// may schedule a second delivery under a freshly minted key.
func (p *ShardPart) transmit(body *sendBody, dst int, pri uint64, now sim.Time) {
	sn := p.owner
	f := sn.fault
	if f != nil && f.Cut(body.Src, dst, now) {
		p.Stats.Dropped++
		f.Counts.PartitionDrops.Add(1)
		return
	}
	r := sn.rngs[body.Src]
	d, dropped := sim.SampleDelay(sn.delay, r, now, body.Src, dst)
	if dropped {
		p.Stats.Dropped++
		return
	}
	p.schedule(body, dst, now+shapeDelay(f, r, d, now), pri)
	if f != nil {
		if pd := f.DupProb(now); pd > 0 && r.Bool(pd) {
			if d2, dropped2 := sim.SampleDelay(sn.delay, r, now, body.Src, dst); !dropped2 {
				f.Counts.Duplicates.Add(1)
				p.schedule(body, dst, now+shapeDelay(f, r, d2, now), sn.priFor(body.Src))
			}
		}
	}
}

// schedule puts one delivery of body to dst on dst's shard: same shard
// directly into the engine, cross shard through the epoch mailbox — both
// under the same (time, pri) key.
func (p *ShardPart) schedule(body *sendBody, dst int, at sim.Time, pri uint64) {
	sn := p.owner
	if dk := sn.smap.Of(dst); dk == p.k {
		p.eng.AtFunc(at, pri, p.fire, body, dst)
	} else {
		sn.sh.CrossFromFunc(p.k, dk, at, pri, sn.parts[dk].fire, body, dst)
	}
}

// deliver runs at the destination shard: body is the *sendBody the copy
// was scheduled with, dst the process it is addressed to.
func (p *ShardPart) deliver(now sim.Time, body any, dst int) {
	sn := p.owner
	if f := sn.fault; f != nil && f.Down(dst, now) {
		p.Stats.Dropped++
		f.Counts.CrashDrops.Add(1)
		return
	}
	p.Stats.Delivered++
	if h := sn.handlers[dst]; h != nil {
		h(body.(*sendBody).message(dst), now)
	}
}
