package checker

import (
	"cmp"
	"slices"

	"pervasive/internal/clock"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// change mirrors the flat checker's per-process last-change record: what
// the race probe needs to undo the process's latest applied event.
type change struct {
	varName string
	prev    float64
	valid   bool
}

// pendingEntry is one coalesced per-process value awaiting the next
// upward sync flush. A newer report from the same process overwrites it
// (superseded values never cross the tier boundary); firstAt survives
// the overwrite so sync lag measures the oldest unsynced information.
type pendingEntry struct {
	proc    int
	seq     int
	epoch   int
	varName string
	value   float64
	own     uint64
	firstAt sim.Time
}

// Aggregator is one regional node of the checker tree: it owns the
// admission state, latest values and (race-aware) stamp reconstructions
// for the contiguous process range [lo, hi), plus the pending set of the
// batched upward sync channel. All indexing below lo-offsets into the
// region; the Tree routes by process id.
type Aggregator struct {
	region int
	lo, hi int
	down   bool
	// epoch is the regional epoch, bumped on every recovery; batches from
	// before the bump are dead.
	epoch int

	// vals is the region's columnar view, indexed by region-local process.
	vals      *predicate.View
	lastSeq   []int
	lastEpoch []int
	// stamps (the latest applied vector stamp per process, empty = none)
	// and lastChange are read only by the race probe, so a race-blind
	// aggregator leaves both nil. Each stamp is the tree's own copy, never
	// a report's vector, and its array is reused by the process's next one.
	stamps     []clock.Vector
	lastChange []change
	// recon holds the per-sender reconstructions of the differential
	// race-aware path: nil until the first diff strobe needs it, and never
	// allocated race-blind — the memory gate that keeps scale-mode
	// aggregators O(region), not O(region·p).
	recon []clock.Vector

	// pending is the set awaiting the next flush, one entry per process in
	// the order first staged; slot[li] is 1 + the index of li's entry, 0
	// when li has none. A dense index costs 4 bytes per process where a
	// dense entry would cost 56, and the list stays at most maxBatch long.
	pending   []pendingEntry
	slot      []int32
	lastFlush sim.Time
}

func newAggregator(region, lo, hi int, raceAware bool) *Aggregator {
	n := hi - lo
	a := &Aggregator{
		region: region, lo: lo, hi: hi,
		vals:      predicate.NewView(n),
		lastSeq:   make([]int, n),
		lastEpoch: make([]int, n),
		slot:      make([]int32, n),
	}
	if raceAware {
		a.stamps = make([]clock.Vector, n)
		a.lastChange = make([]change, n)
	}
	return a
}

// stage coalesces one applied report from region-local process li into
// the pending sync set; it reports whether a superseded pending value was
// overwritten.
func (a *Aggregator) stage(m *Report, li int, now sim.Time) bool {
	if s := a.slot[li]; s > 0 {
		e := &a.pending[s-1]
		e.seq, e.epoch, e.varName, e.value, e.own = m.Seq, m.Epoch, m.Var, m.Value, m.OwnClock()
		return true
	}
	a.pending = append(a.pending, pendingEntry{ //lint:allow hotpath(amortized growth: a full set forces a flush, so the list stops growing at maxBatch entries and is reused from then on)
		proc: m.Proc, seq: m.Seq, epoch: m.Epoch, varName: m.Var, value: m.Value,
		own: m.OwnClock(), firstAt: now,
	})
	a.slot[li] = int32(len(a.pending))
	return false
}

// sortPending puts the pending set in proc order, the order a batch's
// triples and entries take on the wire; the slot index is stale after
// it, which is why only a flush, which empties the set, calls it.
func (a *Aggregator) sortPending() {
	slices.SortFunc(a.pending, func(x, y pendingEntry) int { return cmp.Compare(x.proc, y.proc) })
}

// clearPending empties the pending set.
func (a *Aggregator) clearPending() {
	for i := range a.pending {
		a.slot[a.pending[i].proc-a.lo] = 0
	}
	a.pending = a.pending[:0]
}

// reset wipes every piece of regional state — values, stamps, admission,
// reconstructions, pending — under a bumped regional epoch. This is the
// crash/recovery discipline: a rejoined aggregator starts from nothing,
// it never merges pre-crash regional state.
func (a *Aggregator) reset() {
	a.epoch++
	a.vals.Clear()
	clear(a.stamps)
	clear(a.lastSeq)
	clear(a.lastEpoch)
	clear(a.lastChange)
	a.recon = nil
	a.clearPending()
}
