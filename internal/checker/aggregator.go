package checker

import (
	"sort"

	"pervasive/internal/clock"
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
	// epoch is the regional epoch, bumped on every recovery; batches and
	// clause partials from before the bump are dead.
	epoch int

	vals       []map[string]float64
	stamps     []clock.Vector
	lastSeq    []int
	lastEpoch  []int
	lastChange []change
	// recon/stampBuf serve the differential race-aware path exactly as in
	// the flat checker, lazily and per-region: nil until the first diff
	// strobe needs them, and never allocated race-blind — the memory gate
	// that keeps scale-mode aggregators O(region), not O(region·p).
	recon    []clock.Vector
	stampBuf []clock.Vector

	pending   map[int]*pendingEntry
	lastFlush sim.Time
}

func newAggregator(region, lo, hi int) *Aggregator {
	n := hi - lo
	a := &Aggregator{
		region: region, lo: lo, hi: hi,
		vals:       make([]map[string]float64, n),
		stamps:     make([]clock.Vector, n),
		lastSeq:    make([]int, n),
		lastEpoch:  make([]int, n),
		lastChange: make([]change, n),
		pending:    make(map[int]*pendingEntry),
	}
	for i := range a.vals {
		a.vals[i] = make(map[string]float64)
	}
	return a
}

// Epoch returns the regional epoch (recoveries so far).
func (a *Aggregator) Epoch() int { return a.epoch }

// stage coalesces one applied report into the pending sync set; it
// reports whether a superseded pending value was overwritten.
func (a *Aggregator) stage(m Report, now sim.Time) bool {
	if e, ok := a.pending[m.Proc]; ok {
		e.seq, e.epoch, e.varName, e.value, e.own = m.Seq, m.Epoch, m.Var, m.Value, m.OwnClock()
		return true
	}
	a.pending[m.Proc] = &pendingEntry{
		seq: m.Seq, epoch: m.Epoch, varName: m.Var, value: m.Value,
		own: m.OwnClock(), firstAt: now,
	}
	return false
}

// drain empties the pending set into a proc-sorted slice (collect-then-
// sort: map iteration order must never reach an observable).
func (a *Aggregator) drain() []int {
	procs := make([]int, 0, len(a.pending))
	for p := range a.pending {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	return procs
}

// reset wipes every piece of regional state — values, stamps, admission,
// reconstructions, pending — under a bumped regional epoch. This is the
// crash/recovery discipline: a rejoined aggregator starts from nothing,
// it never merges pre-crash regional state.
func (a *Aggregator) reset() {
	a.epoch++
	for i := range a.vals {
		a.vals[i] = make(map[string]float64)
		a.stamps[i] = nil
		a.lastSeq[i] = 0
		a.lastEpoch[i] = 0
		a.lastChange[i] = change{}
	}
	a.recon = nil
	a.stampBuf = nil
	a.pending = make(map[int]*pendingEntry)
}

// StateBytes estimates the aggregator's resident footprint: per-process
// admission and value state, the pending sync set, and the race-aware
// reconstructions when allocated. The estimate uses the same flat
// per-entry costs as the clock package's StateBytes accounting.
func (a *Aggregator) StateBytes() int {
	n := a.hi - a.lo
	b := 96 + n*(8+8+8+8+8+32) // headers, slices, lastSeq/lastEpoch/lastChange
	for _, m := range a.vals {
		b += 48 + 32*len(m)
	}
	b += 48 + 64*len(a.pending)
	for _, v := range a.recon {
		b += 8 * cap(v)
	}
	for _, v := range a.stampBuf {
		b += 8 * cap(v)
	}
	return b
}
