package checker

import (
	"fmt"

	"pervasive/internal/clock"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// Config assembles one checker tree.
type Config struct {
	// N is the sensor count; reports carry Proc in [0, N).
	N    int
	Pred predicate.Cond
	// Fanout is R, the number of regional aggregators (clamped to [1, N]).
	Fanout int
	// RaceAware keeps per-sender strobe-vector reconstructions per region
	// and classifies order-ambiguous flips into the borderline bin; off,
	// the tree is the race-blind scale configuration.
	RaceAware bool
	// BatchInterval is the upward sync flush cadence (default 5ms — the
	// default delivery lookahead, so one batch per delay window).
	BatchInterval sim.Duration
}

// Stats are the tree's cumulative counters.
type Stats struct {
	// Applied / Stale mirror the flat checker's admission counters.
	Applied, Stale int64
	// Batches / BatchTriples / BatchEntries count upward sync flushes,
	// their stamp-watermark triples, and their boundary value entries.
	Batches, BatchTriples, BatchEntries int64
	// Coalesced counts superseded pending values overwritten before they
	// ever crossed the tier boundary.
	Coalesced int64
	// LocalEntries counts pending values filtered as region-local (read
	// only by clauses homed in the owning region).
	LocalEntries int64
	// WireBytes is the total encoded size of every flushed batch.
	WireBytes int64
	// RegionDropped counts reports dropped because the owning regional
	// aggregator was crashed.
	RegionDropped int64
	// SyncedProcs / SyncLagTotal measure the upward channel's staleness:
	// per flushed process, how long its oldest unsynced report waited.
	SyncedProcs  int64
	SyncLagTotal sim.Duration
}

// rootView is the root's batch-synced consolidated state: per-process
// strobe watermarks, advanced only by decoding flushed batches (the wire
// codec is load-bearing).
type rootView struct {
	own         []uint64
	seq         []int
	regionEpoch []int
}

// Tree is the hierarchical checker: R regional aggregators under one
// root, detection-equivalent to the flat core.StrobeChecker at every
// fan-out. Like the flat checker it is single-goroutine: all reports are
// delivered on the checker's home shard.
type Tree struct {
	n, r      int
	raceAware bool
	aggs      []*Aggregator

	// eval is the root's verdict: every applied report sets its key there,
	// and the race probe sets, evaluates and restores keys through it.
	eval predicate.Incremental
	// boundary[name][p] says a cross-region clause reads name@p (an
	// aggregate reads name at every p); boundaryAll says an untracked
	// clause may read any key. Only boundary values ride a sync batch's
	// entries.
	boundary    map[string][]bool
	boundaryAll bool

	cur      bool
	occ      []Occurrence
	markers  []sim.Time
	finished bool

	// Notify, if set, is invoked on each detection rising edge.
	Notify func(o Occurrence)

	batchInterval sim.Duration
	maxBatch      int // pending sync entries per aggregator that force a flush: the memory bound
	root          rootView
	// out, wire and in are the upward sync's round trip, reused by every
	// flush: the batch built from a pending set, its encoding, and the
	// batch the root decodes from those bytes.
	out, in Batch
	wire    []byte

	// Stat is the cumulative counter block.
	Stat Stats

	obsEvals      *obs.Counter
	obsDetections *obs.Counter
	obsApplied    *obs.Counter
	obsStale      *obs.Counter
	obsRaces      *obs.Counter
	obsBatches    *obs.Counter
	obsWireBytes  *obs.Counter
	obsCoalesced  *obs.Counter
	obsDropped    *obs.Counter
}

// New builds the tree: carves [0, N) into Fanout contiguous regions,
// compiles the predicate into the incremental evaluator at the all-zero
// view (the same implicit initial view the flat checker starts from), and
// marks the keys that the clauses it compiled read across regions.
func New(cfg Config) *Tree {
	if cfg.N <= 0 {
		panic("checker: tree needs at least one process")
	}
	r := cfg.Fanout
	if r < 1 {
		r = 1
	}
	if r > cfg.N {
		r = cfg.N
	}
	if cfg.BatchInterval <= 0 {
		cfg.BatchInterval = 5 * sim.Millisecond
	}
	t := &Tree{
		n: cfg.N, r: r,
		raceAware:     cfg.RaceAware,
		batchInterval: cfg.BatchInterval, maxBatch: 256,
		root: rootView{
			own:         make([]uint64, cfg.N),
			seq:         make([]int, cfg.N),
			regionEpoch: make([]int, r),
		},
	}
	t.aggs = make([]*Aggregator, r)
	for i := 0; i < r; i++ {
		t.aggs[i] = newAggregator(i, t.regionLo(i), t.regionLo(i+1), cfg.RaceAware)
	}
	t.eval.Init(cfg.Pred, cfg.N)
	t.boundary = make(map[string][]bool)
	t.eval.Conjuncts(func(c predicate.Cond, untracked bool) {
		t.boundaryAll = t.boundaryAll || untracked
		home, spans := -1, false // home: the region of the last key read
		c.CollectVars(func(k predicate.Key) {
			r := -1 // an aggregate reads every region
			if k.Proc >= 0 {
				r = t.RegionOf(k.Proc)
			}
			spans = spans || r < 0 || home >= 0 && r != home
			home = r
		})
		if spans {
			c.CollectVars(t.markBoundary)
		}
	})
	return t
}

// markBoundary marks k as read by a clause spanning regions.
func (t *Tree) markBoundary(k predicate.Key) {
	if k.Proc >= t.n {
		return // no report ever carries it
	}
	b := t.boundary[k.Name]
	if b == nil {
		b = make([]bool, t.n)
		t.boundary[k.Name] = b
	}
	if k.Proc >= 0 {
		b[k.Proc] = true
		return
	}
	for p := range b {
		b[p] = true
	}
}

// boundaryKey reports whether (proc, name) is read by a clause not
// settled inside proc's region — the criterion for forwarding the value
// upward in a sync batch.
func (t *Tree) boundaryKey(proc int, name string) bool {
	b := t.boundary[name]
	return t.boundaryAll || b != nil && b[proc]
}

// RegionOf returns the region owning process p — the same proportional
// contiguous map the sharded engine uses for its spatial partition.
func (t *Tree) RegionOf(p int) int { return p * t.r / t.n }

// regionLo returns the first process of region i (regionLo(r) == n).
func (t *Tree) regionLo(i int) int { return (i*t.n + t.r - 1) / t.r }

// aggFor resolves a process to its aggregator and region-local index.
func (t *Tree) aggFor(p int) (*Aggregator, int) {
	a := t.aggs[t.RegionOf(p)]
	return a, p - a.lo
}

// Fanout returns R, the number of regional aggregators.
func (t *Tree) Fanout() int { return t.r }

// Aggregators exposes the regional nodes (tests, memory accounting).
func (t *Tree) Aggregators() []*Aggregator { return t.aggs }

// SetObs attaches runtime metrics. The checker.* names match the flat
// checker's so dashboards are checker-implementation agnostic; the
// checker.tree.* names cover the tree-only machinery.
func (t *Tree) SetObs(r *obs.Registry) {
	t.obsEvals = r.Counter("checker.pred_evals")
	t.obsDetections = r.Counter("checker.detections")
	t.obsApplied = r.Counter("checker.strobes_applied")
	t.obsStale = r.Counter("checker.strobes_stale")
	t.obsRaces = r.Counter("checker.race_markers")
	t.obsBatches = r.Counter("checker.tree.batches")
	t.obsWireBytes = r.Counter("checker.tree.wire_bytes")
	t.obsCoalesced = r.Counter("checker.tree.coalesced")
	t.obsDropped = r.Counter("checker.tree.region_dropped")
}

// OnReport applies one received strobe report. The admission discipline,
// view update, race probe and flip logic replicate the flat checker's
// OnStrobe step for step — the differential tests hold the two
// implementations to byte-identical output.
func (t *Tree) OnReport(m Report, now sim.Time) {
	if t.finished {
		return
	}
	if m.Proc < 0 || m.Proc >= t.n {
		t.Stat.Stale++
		t.obsStale.Inc()
		return
	}
	a, li := t.aggFor(m.Proc)
	if a.down {
		// A crashed aggregator drops its region's reports on the floor;
		// the root's last-synced view of the region persists, exactly as
		// the flat checker's view of a dead sensor does.
		t.Stat.RegionDropped++
		t.obsDropped.Inc()
		return
	}
	switch {
	case m.Epoch < a.lastEpoch[li]:
		t.Stat.Stale++
		t.obsStale.Inc()
		return
	case m.Epoch > a.lastEpoch[li]:
		a.lastEpoch[li] = m.Epoch
		a.lastSeq[li] = 0
		if t.raceAware {
			a.stamps[li] = nil
			a.lastChange[li] = change{}
		}
		if a.recon != nil {
			a.recon[li].Reset()
		}
	}
	if m.Seq <= a.lastSeq[li] {
		t.Stat.Stale++
		t.obsStale.Inc()
		return
	}
	a.lastSeq[li] = m.Seq
	t.Stat.Applied++
	t.obsApplied.Inc()

	// Differential strobes: per-sender reconstruction, allocated lazily
	// per region and only race-aware (the flat checker's memory gate).
	if m.Vec == nil && m.Sparse != nil && t.raceAware {
		if a.recon == nil {
			a.recon = make([]clock.Vector, a.hi-a.lo)
			a.stampBuf = make([]clock.Vector, a.hi-a.lo)
		}
		if a.recon[li] == nil {
			a.recon[li] = clock.NewVector(t.n)
			a.stampBuf[li] = clock.NewVector(t.n)
		}
		a.recon[li].MergeSparse(m.Sparse)
		copy(a.stampBuf[li], a.recon[li])
		m.Vec = a.stampBuf[li]
	}

	prev := a.vals.Set(li, m.Var, m.Value)
	t.eval.Set(predicate.Key{Proc: m.Proc, Name: m.Var}, m.Value)
	settled := t.phi()

	race := false
	if t.raceAware {
		if m.Vec != nil {
			race = t.detectRace(m, prev)
			a.stamps[li] = m.Vec
		}
		a.lastChange[li] = change{varName: m.Var, prev: prev, valid: true}
	}

	if race {
		t.markers = append(t.markers, now)
		t.obsRaces.Inc()
	}
	t.flip(settled, race, now)

	// Upward sync: coalesce into the pending set, flush lazily.
	if a.stage(&m, li, now) {
		t.Stat.Coalesced++
		t.obsCoalesced.Inc()
	}
	if len(a.pending) >= t.maxBatch || now-a.lastFlush >= t.batchInterval {
		t.flushAgg(a, now)
	}
}

// phi evaluates the predicate at the evaluator's current values; each
// call counts as one predicate evaluation, as the flat checker counts.
func (t *Tree) phi() bool {
	t.obsEvals.Inc()
	return t.eval.Holds()
}

// flip updates detection state on a settled-truth edge, mirroring the
// flat checker's occurrence bookkeeping exactly.
func (t *Tree) flip(settled, race bool, now sim.Time) {
	if settled == t.cur {
		return
	}
	if settled {
		t.obsDetections.Inc()
		o := Occurrence{Start: now, Borderline: race}
		t.occ = append(t.occ, o)
		if t.Notify != nil {
			t.Notify(o)
		}
	} else if len(t.occ) > 0 {
		t.occ[len(t.occ)-1].End = now
		if race {
			t.occ[len(t.occ)-1].Borderline = true
		}
	}
	t.cur = settled
}

// Finish flushes every aggregator's pending sync and closes any open
// occurrence at the horizon. Further reports are ignored.
func (t *Tree) Finish(horizon sim.Time) {
	if t.finished {
		return
	}
	for _, a := range t.aggs {
		if !a.down {
			t.flushAgg(a, horizon)
		}
	}
	t.finished = true
	if t.cur && len(t.occ) > 0 && t.occ[len(t.occ)-1].End == 0 {
		t.occ[len(t.occ)-1].End = horizon
	}
}

// Occurrences returns the detected occurrences (call Finish first).
func (t *Tree) Occurrences() []Occurrence { return t.occ }

// Markers returns the view times at which race ambiguity was observed.
func (t *Tree) Markers() []sim.Time { return t.markers }

// View returns the tree's current value of (proc, var).
func (t *Tree) View(proc int, name string) float64 {
	if proc < 0 || proc >= t.n {
		return 0
	}
	a, li := t.aggFor(proc)
	return a.vals.Get(li, name)
}

// MaxAggregatorBytes returns the largest regional node footprint — the
// quantity the bounded-memory claim is about (sublinear in p at fixed
// region size).
func (t *Tree) MaxAggregatorBytes() int {
	max := 0
	for _, a := range t.aggs {
		if b := a.StateBytes(); b > max {
			max = b
		}
	}
	return max
}

// RootSynced returns the root's batch-synced watermark for proc: its own
// strobe-clock component and report seq as of the last decoded batch.
func (t *Tree) RootSynced(proc int) (own uint64, seq int) {
	return t.root.own[proc], t.root.seq[proc]
}

// flushAgg drains one aggregator's pending set into a batch, encodes it,
// and advances the root's consolidated view from the *decoded* bytes. The
// batch, its bytes and the decoded batch live in buffers the tree reuses,
// so a flush allocates nothing once they have grown to the largest batch.
func (t *Tree) flushAgg(a *Aggregator, now sim.Time) {
	a.lastFlush = now
	if len(a.pending) == 0 {
		return
	}
	a.sortPending()
	b := &t.out
	b.Region, b.Epoch, b.At = a.region, a.epoch, now
	b.Triples, b.Entries = b.Triples[:0], b.Entries[:0]
	for i := range a.pending {
		e := &a.pending[i]
		b.Triples = append(b.Triples, clock.StampTriple{Proc: e.proc, Val: e.own, Sent: uint64(e.seq)}) //lint:allow hotpath(amortized growth: the reused batch grows to the largest pending set, at most maxBatch, and stops)
		if t.boundaryKey(e.proc, e.varName) {
			b.Entries = append(b.Entries, BatchEntry{Proc: e.proc, Epoch: e.epoch, Var: e.varName, Value: e.value}) //lint:allow hotpath(amortized growth: as the triples above)
		} else {
			t.Stat.LocalEntries++
		}
		// Finish flushes at the horizon what the post-horizon drain staged
		// after it: a report flushed before it was staged waited zero.
		if lag := now - e.firstAt; lag > 0 {
			t.Stat.SyncLagTotal += lag
		}
		t.Stat.SyncedProcs++
	}
	t.wire = b.AppendWire(t.wire[:0])
	t.Stat.WireBytes += int64(len(t.wire))
	t.obsWireBytes.Add(int64(len(t.wire)))
	if n, err := t.in.DecodeWire(t.wire); err != nil || n != len(t.wire) {
		panic(fmt.Sprintf("checker: batch codec round-trip failed: n=%d/%d err=%v", n, len(t.wire), err)) //lint:allow hotpath(cold panic path: a codec that cannot read its own bytes is a bug, and the process dies here)
	}
	t.rootApply(&t.in)
	t.Stat.Batches++
	t.Stat.BatchTriples += int64(len(b.Triples))
	t.Stat.BatchEntries += int64(len(b.Entries))
	t.obsBatches.Inc()
	a.clearPending()
}

// rootApply advances the root watermarks from one decoded batch. Batches
// under a stale regional epoch (pre-recovery stragglers) are discarded —
// the aggregator-level counterpart of the per-sensor epoch discipline.
func (t *Tree) rootApply(b *Batch) {
	if b.Epoch < t.root.regionEpoch[b.Region] {
		return
	}
	t.root.regionEpoch[b.Region] = b.Epoch
	for _, tr := range b.Triples {
		t.root.own[tr.Proc] = tr.Val
		t.root.seq[tr.Proc] = int(tr.Sent)
	}
}

// CrashRegion takes regional aggregator r down: its pending sync is lost
// and subsequent reports from its region are dropped until recovery.
func (t *Tree) CrashRegion(r int) {
	a := t.aggs[r]
	if a.down {
		return
	}
	a.down = true
	t.Stat.RegionDropped += int64(len(a.pending))
	a.clearPending()
}

// RecoverRegion brings aggregator r back with wholly fresh regional
// state: values, stamps and admission are reset under a bumped regional
// epoch, and the region's keys read 0 in the evaluator, so nothing
// pre-crash can be merged back in. If forgetting the region flips the
// predicate, the edge is recorded at the recovery time.
func (t *Tree) RecoverRegion(r int, now sim.Time) {
	a := t.aggs[r]
	if !a.down {
		return
	}
	a.down = false
	for _, name := range a.vals.Names() {
		for p := a.lo; p < a.hi; p++ {
			t.eval.Set(predicate.Key{Proc: p, Name: name}, 0)
		}
	}
	a.reset()
	a.lastFlush = now
	// Fence the root against pre-crash stragglers immediately: the epoch
	// bump must take effect before any batch under the new epoch arrives.
	t.root.regionEpoch[r] = a.epoch
	t.flip(t.eval.Holds(), false, now)
}

// detectRace replicates the flat checker's four-state probe (see
// core.StrobeChecker.detectRace for the criterion): processes are
// scanned in global order across regions, and each probe sets, evaluates
// and restores the two keys through the evaluator exactly as the flat
// probe does through its view. The restore is exact: the evaluator keeps
// a running sum only while every value folded into it is an exact
// integer.
func (t *Tree) detectRace(m Report, prevI float64) bool {
	keyI := predicate.Key{Proc: m.Proc, Name: m.Var}
	for j := 0; j < t.n; j++ {
		if j == m.Proc {
			continue
		}
		ja, jli := t.aggFor(j)
		if ja.stamps[jli] == nil || !ja.lastChange[jli].valid {
			continue
		}
		if !m.Vec.ConcurrentWith(ja.stamps[jli]) {
			continue
		}
		ch := ja.lastChange[jli]
		keyJ := predicate.Key{Proc: j, Name: ch.varName}

		phi11 := t.phi()
		t.eval.Set(keyJ, ch.prev) // s10: only e
		phi10 := t.phi()
		t.eval.Set(keyI, prevI) // s00: neither
		phi00 := t.phi()
		t.eval.Set(keyJ, ja.vals.Get(jli, ch.varName)) // s01: only e'
		phi01 := t.phi()
		t.eval.Set(keyI, m.Value) // restore s11

		if phi00 == phi11 && phi10 != phi01 {
			return true
		}
	}
	return false
}
