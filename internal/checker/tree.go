package checker

import (
	"fmt"

	"pervasive/internal/clock"
	"pervasive/internal/flight"
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
	// Batches / BatchTriples count upward sync flushes and their
	// stamp-watermark triples.
	Batches, BatchTriples int64
	// Coalesced counts superseded pending values overwritten before they
	// ever crossed the tier boundary.
	Coalesced int64
	// WireBytes is the total encoded size of every flushed batch.
	WireBytes int64
	// SyncedProcs / SyncLagTotal measure the upward channel's staleness:
	// per flushed process, how long its oldest unsynced report waited.
	SyncedProcs  int64
	SyncLagTotal sim.Duration
}

// rootView is what the root keeps of the decoded batches: each region's
// latest epoch, the fence that discards a pre-recovery straggler. The
// verdict itself comes from the evaluator, which every applied report
// sets directly; the decode round trip checks the codec in production.
type rootView struct {
	regionEpoch []int
}

// Tree is the hierarchical checker: R regional aggregators under one
// root, detection-equivalent to the flat reference core.StrobeChecker at
// every fan-out, R = 1 included. It is single-goroutine: all reports are
// delivered on the checker's home shard (the live engine serializes them
// under a lock).
type Tree struct {
	n, r      int
	raceAware bool
	aggs      []*Aggregator

	// eval is the root's verdict: every applied report sets its key there,
	// and the race probe sets, evaluates and restores keys through it.
	eval predicate.Incremental
	// boundary[s] says a clause spanning regions reads the key in eval's
	// slot s (an aggregate reads its name at every process); boundaryAll
	// says an untracked clause may read any key. Only boundary values
	// ride a sync batch's entries.
	boundary    []bool
	boundaryAll bool

	cur      bool
	occ      []Occurrence
	markers  []sim.Time
	finished bool

	// Notify, if set, is invoked when the predicate becomes true in the
	// tree's view — the hook through which detection triggers actuation
	// (the sense→detect→actuate loop of Section 2.2). The occurrence's End
	// is not yet known at call time.
	Notify func(o Occurrence)

	// NaiveRace switches race detection to the naive criterion — flag
	// whenever the applied event is concurrent with any other process's
	// latest event, regardless of whether the predicate's history depends
	// on their order. Used by the A2 ablation; the default four-state
	// criterion flags only order-sensitive races.
	NaiveRace bool

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

	// Flight recorder wiring; fl nil (no-op) until SetFlight. flSelf is
	// the checker's own process index on the transport.
	fl     *flight.Recorder
	flSelf int32
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
		root: rootView{regionEpoch: make([]int, r)},
	}
	t.aggs = make([]*Aggregator, r)
	for i := 0; i < r; i++ {
		t.aggs[i] = newAggregator(i, t.regionLo(i), t.regionLo(i+1), cfg.RaceAware)
	}
	t.eval.Init(cfg.Pred, cfg.N)
	t.boundary = make([]bool, t.eval.NumSlots())
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

// markBoundary marks k as read by a clause spanning regions. A tracked
// clause's keys all have slots; an untracked clause sets boundaryAll.
func (t *Tree) markBoundary(k predicate.Key) {
	switch {
	case k.Proc >= t.n:
		return // no report ever carries it
	case k.Proc >= 0:
		t.markSlot(k.Proc, k.Name)
	default:
		for p := 0; p < t.n; p++ {
			t.markSlot(p, k.Name)
		}
	}
}

// markSlot marks the slot of (proc, name), if it has one.
func (t *Tree) markSlot(proc int, name string) {
	if s := t.eval.Slot(proc, name); s >= 0 {
		t.boundary[s] = true
	}
}

// boundaryKey reports whether (proc, name) is read by a clause not
// settled inside proc's region — the criterion for forwarding the value
// upward in a sync batch.
func (t *Tree) boundaryKey(proc int, name string) bool {
	if t.boundaryAll {
		return true
	}
	s := t.eval.Slot(proc, name)
	return s >= 0 && t.boundary[s]
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

// SetObs attaches runtime metrics: predicate evaluations (the four-state
// probes of race detection included), detections, applied/stale
// strobes and race markers under checker.*, the names the other
// checkers share where they count the same thing, and the sync
// machinery under checker.tree.*. SetObs(nil) detaches.
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

// SetFlight attaches a flight recorder: applied/stale reports and the
// predicate's detect/clear edges are recorded at the checker's ring
// (self is its transport index), and every detection rising edge
// triggers a full dump — the recent causal context that explains the
// detection. SetFlight(nil, 0) detaches.
func (t *Tree) SetFlight(r *flight.Recorder, self int) {
	t.fl = r
	t.flSelf = int32(self)
}

// OnReport applies one received strobe report and updates detection
// state. Reports from a process are applied in increasing Seq order;
// older ones that arrive late (reordered or after a loss) are discarded,
// which keeps the effect of a loss local in time (Section 4.2.2). The
// differential tests hold the tree to the flat reference checker's
// output, report for report. The tree keeps no memory m points to: a
// stamp it needs later is copied into a buffer of its own.
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
		// the evaluator keeps the region's last values, exactly as the
		// flat checker's view of a dead sensor does.
		t.obsDropped.Inc()
		return
	}
	// Epoch discipline: a recovered process restarts with Seq 1 under a
	// bumped epoch. Stamps from an older epoch are pre-crash stragglers —
	// discarding them (and resetting the per-process order state on the
	// bump) is what keeps the tree from merging pre-crash strobe state
	// into the rebooted process's fresh causal history.
	switch {
	case m.Epoch < a.lastEpoch[li]:
		t.stale(&m, now)
		return
	case m.Epoch > a.lastEpoch[li]:
		a.lastEpoch[li] = m.Epoch
		a.lastSeq[li] = 0
		if t.raceAware {
			a.stamps[li] = a.stamps[li][:0]
			a.lastChange[li] = change{}
		}
		if a.recon != nil {
			a.recon[li].Reset()
		}
	}
	if m.Seq <= a.lastSeq[li] {
		t.stale(&m, now)
		return
	}
	a.lastSeq[li] = m.Seq
	t.Stat.Applied++
	t.obsApplied.Inc()
	t.record(flight.Apply, &m, now)

	// Differential strobes: rebuild the sender's full vector by merging
	// its changed components into the per-sender reconstruction. After a
	// lost diff the reconstruction under-knows until the missing
	// components change again — which can only add false concurrency
	// (more borderline flags), never false order. The reconstructions
	// exist solely to feed race detection, so a race-blind tree skips
	// them entirely — that is what keeps its memory O(region), not
	// O(region·p), at scale. They are allocated lazily, per region.
	if m.Vec == nil && m.Sparse != nil && t.raceAware {
		if a.recon == nil {
			a.recon = make([]clock.Vector, a.hi-a.lo) //lint:allow hotpath(lazy, once per race-aware region)
		}
		if a.recon[li] == nil {
			a.recon[li] = clock.NewVector(t.n)
		}
		a.recon[li].MergeSparse(m.Sparse)
		m.Vec = a.recon[li]
	}

	prev := a.vals.Set(li, m.Var, m.Value)
	t.eval.Set(predicate.Key{Proc: m.Proc, Name: m.Var}, m.Value)
	settled := t.phi()

	race := false
	if t.raceAware {
		if m.Vec != nil {
			race = t.detectRace(&m, prev)
			a.stamps[li] = keepVec(a.stamps[li], m.Vec)
		}
		a.lastChange[li] = change{varName: m.Var, prev: prev, valid: true}
	}

	if race {
		t.markers = append(t.markers, now) //lint:allow hotpath(a race marker is output the run keeps, one per borderline strobe)
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

// stale counts one discarded report and records it at the checker's ring.
func (t *Tree) stale(m *Report, now sim.Time) {
	t.Stat.Stale++
	t.obsStale.Inc()
	t.record(flight.Stale, m, now)
}

// record stamps one applied or discarded report at the checker's ring.
func (t *Tree) record(kind flight.Kind, m *Report, now sim.Time) {
	if t.fl == nil {
		return
	}
	t.fl.Record(flight.Rec{
		Kind: kind, Proc: t.flSelf, Peer: int32(m.Proc),
		Epoch: int32(m.Epoch), Seq: uint64(m.Seq), At: now,
		Attr: t.fl.Intern(m.Var), PeerClock: m.OwnClock(), Value: m.Value,
	})
}

// keepVec copies v into dst's array, growing it only when v does not fit.
func keepVec(dst, v clock.Vector) clock.Vector {
	if cap(dst) < len(v) {
		dst = clock.NewVector(len(v))
	}
	dst = dst[:len(v)]
	copy(dst, v)
	return dst
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
		t.occ = append(t.occ, o) //lint:allow hotpath(an occurrence is output the run keeps, one per detection)
		if t.Notify != nil {
			t.Notify(o)
		}
		if t.fl != nil {
			t.fl.Record(flight.Rec{Kind: flight.Detect, Proc: t.flSelf, Peer: flight.NoPeer, At: now, Value: 1})
			// Dump every ring: the predicate is global, so the causal
			// context of a detection spans the whole fleet.
			t.fl.TriggerDump("detect", now)
		}
	} else if len(t.occ) > 0 {
		t.occ[len(t.occ)-1].End = now
		if race {
			t.occ[len(t.occ)-1].Borderline = true
		}
		if t.fl != nil {
			t.fl.Record(flight.Rec{Kind: flight.Clear, Proc: t.flSelf, Peer: flight.NoPeer, At: now})
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
//
//lint:allow testonly(the core differential tests read the tree's view through it, against the flat oracle's)
func (t *Tree) View(proc int, name string) float64 {
	if proc < 0 || proc >= t.n {
		return 0
	}
	a, li := t.aggFor(proc)
	return a.vals.Get(li, name)
}

// flushAgg drains one aggregator's pending set into a batch, encodes it,
// and hands the root the *decoded* bytes for its epoch fence. The
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
	t.obsBatches.Inc()
	a.clearPending()
}

// rootApply takes one decoded batch at the root. A batch under a stale
// regional epoch (a pre-recovery straggler) is discarded — the
// aggregator-level counterpart of the per-sensor epoch discipline.
func (t *Tree) rootApply(b *Batch) {
	if b.Epoch < t.root.regionEpoch[b.Region] {
		return
	}
	t.root.regionEpoch[b.Region] = b.Epoch
}

// CrashRegion takes regional aggregator r down: its pending sync is lost
// and subsequent reports from its region are dropped until recovery.
//
//lint:allow testonly(regional fault injection, ROADMAP item 17(c), is its first production caller; until then the tree tests drive it)
func (t *Tree) CrashRegion(r int) {
	a := t.aggs[r]
	if a.down {
		return
	}
	a.down = true
	a.clearPending()
}

// RecoverRegion brings aggregator r back with wholly fresh regional
// state: values, stamps and admission are reset under a bumped regional
// epoch, and the region's keys read 0 in the evaluator, so nothing
// pre-crash can be merged back in. If forgetting the region flips the
// predicate, the edge is recorded at the recovery time.
//
//lint:allow testonly(CrashRegion's other half, for the same planned caller)
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

// detectRace reports whether the just-applied event e (from m.Proc, whose
// variable previously held prevI) races with another process's latest
// event e' in a way that makes the predicate's history ambiguous. The two
// events race when their stamps are concurrent — the strobe order cannot
// tell which happened first. Consider the four states over {e, e'}
// applied/not: s00, s10 (only e), s01 (only e'), s11 (both). The true
// history passed through s00 → (s10 or s01) → s11 in an unknowable order.
// The order matters exactly when the endpoints agree (φ(s00) == φ(s11))
// but the middles differ (φ(s10) ≠ φ(s01)): one order contains a
// transient φ-change that the other lacks, so whether φ held in between
// cannot be decided. When the endpoints differ, the net transition
// happens under either order (only its attribution shifts within the race
// window) and the observation is robust — e.g. two concurrent rises that
// jointly push a sum over its threshold are correctly left unflagged.
//
// Processes are scanned in global order, region by region, and each
// probe sets, evaluates and restores the two keys through the evaluator.
// The restore is exact: the evaluator keeps a running sum only while
// every value folded into it is an exact integer.
func (t *Tree) detectRace(m *Report, prevI float64) bool {
	keyI := predicate.Key{Proc: m.Proc, Name: m.Var}
	for _, ja := range t.aggs {
		for jli, stamp := range ja.stamps {
			ch := &ja.lastChange[jli]
			if len(stamp) == 0 || !ch.valid || ja.lo+jli == m.Proc {
				continue
			}
			if !m.Vec.ConcurrentWith(stamp) {
				continue
			}
			if t.NaiveRace {
				return true
			}
			keyJ := predicate.Key{Proc: ja.lo + jli, Name: ch.varName}

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
	}
	return false
}
