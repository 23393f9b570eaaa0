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

// clauseState is the root's mutable evaluation state for one clause.
type clauseState struct {
	// totals are the two comparison side values (konst baked in);
	// meaningful only for linear clauses.
	totals [2]float64
	// reg are the per-region partial contributions to each side — what
	// RecoverRegion subtracts to forget a crashed region.
	reg   [2][]float64
	truth bool
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
	pred      predicate.Cond
	raceAware bool
	plan      *Plan
	aggs      []*Aggregator

	cs       []clauseState
	numFalse int
	// state is the distributed view pre-boxed as a predicate.State (same
	// hot-path boxing note as the flat checker).
	state predicate.State

	cur      bool
	occ      []Occurrence
	markers  []sim.Time
	finished bool

	// Notify, if set, is invoked on each detection rising edge.
	Notify func(o Occurrence)

	batchInterval sim.Duration
	maxBatch      int // pending sync entries per aggregator that force a flush: the memory bound
	root          rootView
	wireScratch   []byte

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

// New builds the tree: compiles the predicate into the clause plan,
// carves [0, N) into Fanout contiguous regions, and initializes clause
// truth at the all-zero view (the same implicit initial view the flat
// checker starts from).
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
		n: cfg.N, r: r, pred: cfg.Pred,
		raceAware:     cfg.RaceAware,
		batchInterval: cfg.BatchInterval, maxBatch: 256,
		root: rootView{
			own:         make([]uint64, cfg.N),
			seq:         make([]int, cfg.N),
			regionEpoch: make([]int, r),
		},
	}
	t.state = treeState{t}
	t.plan = NewPlan(cfg.Pred, cfg.N, t.RegionOf)
	t.aggs = make([]*Aggregator, r)
	for i := 0; i < r; i++ {
		t.aggs[i] = newAggregator(i, t.regionLo(i), t.regionLo(i+1))
	}
	t.cs = make([]clauseState, len(t.plan.clauses))
	for i, cl := range t.plan.clauses {
		cs := &t.cs[i]
		cs.reg = [2][]float64{make([]float64, r), make([]float64, r)}
		if cl.Linear {
			cs.totals = [2]float64{cl.Sides[0].Konst, cl.Sides[1].Konst}
			cs.truth = predicate.CmpEval(cl.Op, cs.totals[0], cs.totals[1])
		} else {
			cs.truth = cl.Cond.Holds(t.state)
		}
		if !cs.truth {
			t.numFalse++
		}
	}
	return t
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

// treeState adapts the distributed regional values to predicate.State.
type treeState struct{ t *Tree }

// Get implements predicate.State.
func (s treeState) Get(proc int, name string) float64 {
	if proc < 0 || proc >= s.t.n {
		return 0
	}
	a, li := s.t.aggFor(proc)
	return a.vals[li][name]
}

// NumProcs implements predicate.State.
func (s treeState) NumProcs() int { return s.t.n }

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
		a.stamps[li] = nil
		a.lastChange[li] = change{}
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

	prev := a.vals[li][m.Var]
	a.vals[li][m.Var] = m.Value
	t.obsEvals.Inc()
	if delta := m.Value - prev; delta != 0 {
		t.applyDelta(m.Proc, m.Var, delta, a.region)
	}
	settled := t.numFalse == 0

	race := false
	if t.raceAware && m.Vec != nil {
		race = t.detectRace(m, prev)
	}

	a.lastChange[li] = change{varName: m.Var, prev: prev, valid: true}
	if m.Vec != nil {
		a.stamps[li] = m.Vec
	}

	if race {
		t.markers = append(t.markers, now)
		t.obsRaces.Inc()
	}
	t.flip(settled, race, now)

	// Upward sync: coalesce into the pending set, flush lazily.
	if a.stage(m, now) {
		t.Stat.Coalesced++
		t.obsCoalesced.Inc()
	}
	if len(a.pending) >= t.maxBatch || now-a.lastFlush >= t.batchInterval {
		t.flushAgg(a, now)
	}
}

// applyDelta folds one value change into the clause states: O(hooks for
// that variable), independent of the fleet size — the per-report cost
// the flat checker pays O(p) for on aggregate predicates.
func (t *Tree) applyDelta(proc int, name string, delta float64, region int) {
	kc := t.plan.byKey[predicate.Key{Proc: proc, Name: name}]
	ka := t.plan.byKey[predicate.Key{Proc: -1, Name: name}]
	for _, c := range kc {
		cs := &t.cs[c.cl.idx]
		cs.totals[c.side] += c.c * delta
		cs.reg[c.side][region] += c.c * delta
	}
	for _, c := range ka {
		cs := &t.cs[c.cl.idx]
		cs.totals[c.side] += c.c * delta
		cs.reg[c.side][region] += c.c * delta
	}
	for _, c := range kc {
		t.refreshClause(c.cl)
	}
	for _, c := range ka {
		t.refreshClause(c.cl)
	}
	for _, cl := range t.plan.opaqueByKey[predicate.Key{Proc: proc, Name: name}] {
		t.refreshClause(cl)
	}
	for _, cl := range t.plan.opaqueByKey[predicate.Key{Proc: -1, Name: name}] {
		t.refreshClause(cl)
	}
}

// refreshClause re-derives one clause's truth and maintains numFalse.
// Idempotent: refreshing an unchanged clause is a no-op.
func (t *Tree) refreshClause(cl *clause) {
	cs := &t.cs[cl.idx]
	var truth bool
	if cl.Linear {
		truth = predicate.CmpEval(cl.Op, cs.totals[0], cs.totals[1])
	} else {
		truth = cl.Cond.Holds(t.state)
	}
	if truth != cs.truth {
		cs.truth = truth
		if truth {
			t.numFalse--
		} else {
			t.numFalse++
		}
	}
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
	return t.state.Get(proc, name)
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
// and advances the root's consolidated view from the *decoded* bytes.
func (t *Tree) flushAgg(a *Aggregator, now sim.Time) {
	a.lastFlush = now
	if len(a.pending) == 0 {
		return
	}
	procs := a.drain()
	b := Batch{Region: a.region, Epoch: a.epoch, At: now}
	for _, p := range procs {
		e := a.pending[p]
		b.Triples = append(b.Triples, clock.StampTriple{Proc: p, Val: e.own, Sent: uint64(e.seq)})
		if t.plan.boundaryKey(p, e.varName, a.region) {
			b.Entries = append(b.Entries, BatchEntry{Proc: p, Epoch: e.epoch, Var: e.varName, Value: e.value})
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
	t.wireScratch = b.AppendWire(t.wireScratch[:0])
	t.Stat.WireBytes += int64(len(t.wireScratch))
	t.obsWireBytes.Add(int64(len(t.wireScratch)))
	dec, n, err := DecodeBatch(t.wireScratch)
	if err != nil || n != len(t.wireScratch) {
		panic(fmt.Sprintf("checker: batch codec round-trip failed: n=%d/%d err=%v", n, len(t.wireScratch), err))
	}
	t.rootApply(dec)
	t.Stat.Batches++
	t.Stat.BatchTriples += int64(len(b.Triples))
	t.Stat.BatchEntries += int64(len(b.Entries))
	t.obsBatches.Inc()
	clear(a.pending)
}

// rootApply advances the root watermarks from one decoded batch. Batches
// under a stale regional epoch (pre-recovery stragglers) are discarded —
// the aggregator-level counterpart of the per-sensor epoch discipline.
func (t *Tree) rootApply(b Batch) {
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
	clear(a.pending)
}

// RecoverRegion brings aggregator r back with wholly fresh regional
// state: values, stamps, admission and clause partials are reset under a
// bumped regional epoch, so nothing pre-crash can be merged back in. If
// forgetting the region flips the predicate, the edge is recorded at the
// recovery time.
func (t *Tree) RecoverRegion(r int, now sim.Time) {
	a := t.aggs[r]
	if !a.down {
		return
	}
	a.down = false
	for i := range t.cs {
		cs := &t.cs[i]
		cs.totals[0] -= cs.reg[0][r]
		cs.totals[1] -= cs.reg[1][r]
		cs.reg[0][r] = 0
		cs.reg[1][r] = 0
	}
	a.reset()
	a.lastFlush = now
	// Fence the root against pre-crash stragglers immediately: the epoch
	// bump must take effect before any batch under the new epoch arrives.
	t.root.regionEpoch[r] = a.epoch
	for _, cl := range t.plan.clauses {
		t.refreshClause(cl)
	}
	t.flip(t.numFalse == 0, false, now)
}

// detectRace replicates the flat checker's four-state probe (see
// core.StrobeChecker.detectRace for the criterion): processes are
// scanned in global order across regions, probes mutate the distributed
// view exactly as the flat probe mutates its map — but the clause states
// are never touched; probe evaluation is functional over pending deltas,
// so restoring the saved values restores the tree bit-exactly.
func (t *Tree) detectRace(m Report, prevI float64) bool {
	ia, ili := t.aggFor(m.Proc)
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
		curJ := ja.vals[jli][ch.varName]
		curI := ia.vals[ili][m.Var]
		pr := t.buildProbe(m.Proc, m.Var, j, ch.varName)

		phi11 := pr.phi(0, 0)
		ja.vals[jli][ch.varName] = ch.prev // s10: only e
		phi10 := pr.phi(0, ch.prev-curJ)
		ia.vals[ili][m.Var] = prevI // s00: neither
		phi00 := pr.phi(prevI-curI, ch.prev-curJ)
		ja.vals[jli][ch.varName] = curJ // s01: only e'
		phi01 := pr.phi(prevI-curI, 0)
		ia.vals[ili][m.Var] = curI // restore s11

		if phi00 == phi11 && phi10 != phi01 {
			return true
		}
	}
	return false
}

// probe is the functional evaluation context for one four-state race
// probe over the pair of keys (i: the applied event's variable, j: the
// concurrent process's last-changed variable).
type probe struct {
	t         *Tree
	items     []probeItem
	baseFalse int
}

type probeItem struct {
	cl     *clause
	opaque bool
	// cI / cJ are the clause's net ±1 coefficients of key i / key j per
	// side (linear clauses only).
	cI, cJ [2]float64
}

// buildProbe collects the clauses affected by either key with their net
// coefficients; every other clause keeps its stored truth during the
// probe.
func (t *Tree) buildProbe(iProc int, iName string, jProc int, jName string) *probe {
	pr := &probe{t: t}
	idx := make(map[*clause]int)
	item := func(cl *clause) *probeItem {
		if k, ok := idx[cl]; ok {
			return &pr.items[k]
		}
		idx[cl] = len(pr.items)
		pr.items = append(pr.items, probeItem{cl: cl, opaque: !cl.Linear})
		return &pr.items[len(pr.items)-1]
	}
	addLinear := func(key predicate.Key, which int) {
		for _, c := range t.plan.byKey[key] {
			it := item(c.cl)
			if which == 0 {
				it.cI[c.side] += c.c
			} else {
				it.cJ[c.side] += c.c
			}
		}
	}
	addLinear(predicate.Key{Proc: iProc, Name: iName}, 0)
	addLinear(predicate.Key{Proc: -1, Name: iName}, 0)
	addLinear(predicate.Key{Proc: jProc, Name: jName}, 1)
	addLinear(predicate.Key{Proc: -1, Name: jName}, 1)
	for _, key := range []predicate.Key{
		{Proc: iProc, Name: iName}, {Proc: -1, Name: iName},
		{Proc: jProc, Name: jName}, {Proc: -1, Name: jName},
	} {
		for _, cl := range t.plan.opaqueByKey[key] {
			item(cl)
		}
	}
	pr.baseFalse = t.numFalse
	for _, it := range pr.items {
		if !t.cs[it.cl.idx].truth {
			pr.baseFalse--
		}
	}
	return pr
}

// phi evaluates the predicate under the probe's pending deltas (dI on
// key i, dJ on key j, both relative to the committed view). Opaque
// clauses read the mutated distributed view directly; linear clauses are
// adjusted arithmetically. Each call counts as one predicate evaluation,
// matching the flat checker's instrumentation.
func (pr *probe) phi(dI, dJ float64) bool {
	pr.t.obsEvals.Inc()
	f := pr.baseFalse
	for i := range pr.items {
		it := &pr.items[i]
		var truth bool
		if it.opaque {
			truth = it.cl.Cond.Holds(pr.t.state)
		} else {
			cs := &pr.t.cs[it.cl.idx]
			l := cs.totals[0] + it.cI[0]*dI + it.cJ[0]*dJ
			r := cs.totals[1] + it.cI[1]*dI + it.cJ[1]*dJ
			truth = predicate.CmpEval(it.cl.Op, l, r)
		}
		if !truth {
			f++
		}
	}
	return f == 0
}
