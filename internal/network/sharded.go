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
		sn.parts[k] = &ShardPart{owner: sn, k: k, eng: sh.Engine(k)}
		sn.parts[k].Stats.ByKind = make(map[string]int64)
	}
	return sn
}

// N returns the number of processes.
func (sn *ShardedNet) N() int { return len(sn.handlers) }

// Part returns shard k's sending facade.
func (sn *ShardedNet) Part(k int) *ShardPart { return sn.parts[k] }

// Map returns the process→shard partition.
func (sn *ShardedNet) Map() ShardMap { return sn.smap }

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

// SendStamped is Send with the payload's logical identity attached.
func (p *ShardPart) SendStamped(src, dst int, pl Payload, st flight.Stamp) uint64 {
	sn := p.owner
	if f := sn.fault; f != nil && f.Down(src, p.eng.Now()) {
		f.Counts.SuppressedSends.Add(1)
		return 0
	}
	id := sn.priFor(src)
	p.transmit(Message{ID: id, Src: src, From: src, Dst: dst, SentAt: p.eng.Now(), Payload: pl, Stamp: st}, id)
	return id
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
	now := p.eng.Now()
	if f := sn.fault; f != nil && f.Down(src, now) {
		f.Counts.SuppressedSends.Add(1)
		return 0
	}
	var id uint64
	send := func(dst int) {
		pri := sn.priFor(src)
		if id == 0 {
			id = pri
		}
		p.transmit(Message{ID: id, Src: src, From: src, Dst: dst, SentAt: now, Payload: pl, Stamp: st}, pri)
	}
	if sn.NeighborScope && src < sn.topo.N() {
		for _, dst := range sn.topo.Neighbors(src) {
			if dst != src {
				send(dst)
			}
		}
		for _, dst := range sn.AlwaysReach {
			if dst != src {
				send(dst)
			}
		}
		return id
	}
	for dst := 0; dst < sn.N(); dst++ {
		if dst != src {
			send(dst)
		}
	}
	return id
}

// transmit samples the link delay from the source's own stream and routes
// the delivery: same shard directly into the engine, cross shard through
// the epoch mailbox — both under the same (time, pri) key.
func (p *ShardPart) transmit(m Message, pri uint64) {
	sn := p.owner
	p.Stats.Sent++
	p.Stats.Bytes += int64(m.Payload.WireSize() + headerBytes)
	p.Stats.ByKind[m.Payload.Kind()]++
	now := p.eng.Now()
	f := sn.fault
	if f != nil && f.Cut(m.From, m.Dst, now) {
		p.Stats.Dropped++
		f.Counts.PartitionDrops.Add(1)
		return
	}
	r := sn.rngs[m.Src]
	d, dropped := sim.SampleDelay(sn.delay, r, now, m.From, m.Dst)
	if dropped {
		p.Stats.Dropped++
		return
	}
	p.route(m, now+shapeDelay(f, r, d, now), pri)
	if f != nil {
		if pd := f.DupProb(now); pd > 0 && r.Bool(pd) {
			if d2, dropped2 := sim.SampleDelay(sn.delay, r, now, m.From, m.Dst); !dropped2 {
				f.Counts.Duplicates.Add(1)
				p.route(m, now+shapeDelay(f, r, d2, now), sn.priFor(m.Src))
			}
		}
	}
}

// route schedules the delivery of m at time at under key pri.
func (p *ShardPart) route(m Message, at sim.Time, pri uint64) {
	sn := p.owner
	dk := sn.smap.Of(m.Dst)
	fn := func(now sim.Time) { sn.parts[dk].deliver(m, now) }
	if dk == p.k {
		p.eng.AtPri(at, pri, fn)
	} else {
		sn.sh.CrossFrom(p.k, dk, at, pri, fn)
	}
}

// deliver runs at the destination shard.
func (p *ShardPart) deliver(m Message, now sim.Time) {
	sn := p.owner
	if f := sn.fault; f != nil && f.Down(m.Dst, now) {
		p.Stats.Dropped++
		f.Counts.CrashDrops.Add(1)
		return
	}
	p.Stats.Delivered++
	if h := sn.handlers[m.Dst]; h != nil {
		h(m, now)
	}
}
