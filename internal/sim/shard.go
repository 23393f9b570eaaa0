package sim

import (
	"fmt"
	"time"

	"pervasive/internal/stats"
)

// crossEvent is one cross-shard delivery staged in its source shard's
// outbox until the next epoch barrier: the destination shard plus exactly
// what Engine.AtFunc takes. pri carries the sender-derived priority key.
type crossEvent struct {
	at   Time
	pri  uint64
	dst  int32
	fn   EventFunc
	body any
	arg  int
}

// Shards runs S single-threaded Engines in lockstep epochs under
// conservative synchronization. The epoch length is the lookahead L — the
// global minimum cross-shard link delay — so a message sent during the
// epoch (E-L, E] arrives strictly after E and can be exchanged at the
// barrier without any shard ever seeing an event in its executed past.
// There are no null messages: the time bound itself is the guarantee.
//
// Cross-shard sends are staged in per-source outboxes (single writer: the
// sending shard) and scheduled into their destination engines at each
// barrier in deterministic shard order. There is one event queue per shard
// and no other: the destination engine orders the delivery by (time, pri,
// seq) exactly as a same-shard AtPri call would, which is what makes
// results byte-identical at any shard count.
//
// With S=1 the barrier machinery short-circuits: Run degenerates to the
// single engine's Run loop, preserving the original single-heap fast path.
type Shards struct {
	engines   []*Engine
	outboxes  [][]crossEvent
	lookahead Duration
	// floor: all shards have executed everything at or before it. It starts
	// before time 0, so events at 0 are still ahead of it and the first
	// epoch is (floor, floor+L] like every other.
	floor   Time
	workers int
	// crew is the running Run's helper goroutines; nil between runs and
	// whenever the epochs run on the caller alone.
	crew *crew

	// stats is each shard's attribution, nil at S = 1, which runs no
	// epochs; timed turns on its wall-clock half (see TimeEpochs). sumMax
	// and sumEvents add up, over epochs, the most events one shard ran and
	// the events all shards ran.
	stats             []shardStat
	timed             bool
	sumMax, sumEvents uint64

	// Epochs counts barrier rounds; CrossSent counts cross-shard events
	// staged through mailboxes. Plain fields: they are touched only between
	// epochs, on the coordinating goroutine.
	Epochs    uint64
	CrossSent uint64
}

// shardStat is one shard's share of the epochs. last is written by the
// crew member that ran the shard's latest epoch and read by the
// coordinator after the barrier; busy, wait and done stay zero unless the
// epochs are timed.
type shardStat struct {
	last       uint64 // events run in the latest epoch
	busy, wait time.Duration
	done       time.Time // when the latest epoch's run ended
}

// ShardStat is one shard's attribution over the epochs run so far: the
// events it executed, and, when the epochs are timed (TimeEpochs), the
// wall time it spent running them and waiting at barriers for the other
// shards.
type ShardStat struct {
	Events     uint64
	Busy, Wait time.Duration
}

// NewShards creates s engines with RNG streams forked deterministically
// from seed; at s = 1 the one engine is NewEngine(seed) itself, so a
// single-engine model draws exactly the streams it draws on a bare Engine.
// lookahead must be positive for s > 1; models with a zero
// minimum delay (Synchronous) cannot be sharded. Note the
// determinism contract: model code that runs sharded must not draw from
// the shard engines' RNGs — those streams depend on the partitioning.
// Per-entity streams forked from a workload root are the
// shard-count-independent replacement.
func NewShards(s int, lookahead Duration, seed uint64) *Shards {
	if s < 1 {
		panic("sim: NewShards needs at least one shard")
	}
	if s > 1 && lookahead <= 0 {
		panic("sim: sharded run requires a positive minimum cross-shard delay (lookahead)")
	}
	sh := &Shards{
		engines:   make([]*Engine, s),
		outboxes:  make([][]crossEvent, s),
		lookahead: lookahead,
		floor:     -1,
	}
	if s == 1 {
		sh.engines[0] = NewEngine(seed)
		return sh
	}
	sh.stats = make([]shardStat, s)
	root := stats.NewRNG(seed)
	for k := range sh.engines {
		sh.engines[k] = NewEngine(root.Uint64())
	}
	return sh
}

// N returns the shard count.
func (sh *Shards) N() int { return len(sh.engines) }

// Engine returns shard k's event engine.
func (sh *Shards) Engine(k int) *Engine { return sh.engines[k] }

// Lookahead returns the epoch length L.
func (sh *Shards) Lookahead() Duration { return sh.lookahead }

// Now returns the global time floor: every shard has executed all events
// at or before it. It reads 0 until the first epoch ends, and after a Run
// that drained every shard it reads the latest event any shard executed,
// as every engine's clock then does (see Run): what the one engine's
// clock reads at S = 1. At S = 1 it is that clock, live inside a handler
// as Engine.Now is.
func (sh *Shards) Now() Time {
	if len(sh.engines) == 1 {
		return sh.engines[0].Now()
	}
	return max(sh.floor, 0)
}

// SetWorkers bounds how many goroutines run an epoch's shards: w <= 1
// runs them one after another in shard order on the caller's goroutine.
// Above that each multi-shard Run starts min(w, shards, GOMAXPROCS) − 1
// helper goroutines once and stops them before it returns; in every epoch
// the caller and the helpers claim shards heaviest first (by the events
// each ran in the previous epoch). The outcome is identical at every w —
// shards share no mutable state during an epoch — so this only trades
// processors for wall clock.
func (sh *Shards) SetWorkers(w int) { sh.workers = w }

// TimeEpochs turns on the wall-clock half of the shard attribution: each
// shard's busy time and its wait at the barrier. Untimed, the epoch loop
// reads no wall clock; the per-shard events and the imbalance are kept
// either way.
func (sh *Shards) TimeEpochs() { sh.timed = true }

// Stat returns shard k's attribution. It must be read between runs. A
// single shard runs no epochs and keeps no attribution beyond its events.
func (sh *Shards) Stat(k int) ShardStat {
	st := ShardStat{Events: sh.engines[k].Executed}
	if sh.stats != nil {
		st.Busy, st.Wait = sh.stats[k].busy, sh.stats[k].wait
	}
	return st
}

// Imbalance is Σ_epochs max / Σ_epochs mean of the events each shard ran
// in an epoch: 1 when every epoch splits evenly, S when one shard runs
// them all. It reads 1 before any epoch has run an event.
func (sh *Shards) Imbalance() float64 {
	if sh.sumEvents == 0 {
		return 1
	}
	return float64(sh.sumMax) * float64(len(sh.engines)) / float64(sh.sumEvents)
}

// CrossFromFunc stages a delivery from shard src into shard dst at time
// at with priority key pri, in the engine's native event form (see
// Engine.AtFunc): the staged triple is scheduled unchanged at the barrier.
// It must be called either from src's goroutine during an epoch or from
// the coordinating goroutine between runs (setup).
func (sh *Shards) CrossFromFunc(src, dst int, at Time, pri uint64, fn EventFunc, body any, arg int) {
	if fn == nil {
		panic("sim: nil handler")
	}
	sh.outboxes[src] = append(sh.outboxes[src], crossEvent{at: at, pri: pri, dst: int32(dst), fn: fn, body: body, arg: arg}) //lint:allow hotpath(the outbox is drained and truncated at every barrier, so it grows to an epoch's cross-shard traffic once and is reused)
}

// collect drains every outbox, in shard order, into the destination
// engines. Every engine's clock is pinned at the barrier, so the schedule
// is never into an engine's past; an event at or before the floor means a
// sender beat the lookahead — the conservative-synchronization invariant is
// broken — so it panics rather than silently reordering history. A
// collected outbox is cleared, not just truncated: its backing array is
// reused every epoch, and a stale entry would keep its body reachable for
// the rest of the run.
func (sh *Shards) collect() {
	for k, box := range sh.outboxes {
		for i := range box {
			ev := &box[i]
			if ev.at <= sh.floor {
				panic(fmt.Sprintf("sim: cross-shard event at %v violates lookahead (floor %v)", ev.at, sh.floor))
			}
			sh.engines[ev.dst].AtFunc(ev.at, ev.pri, ev.fn, ev.body, ev.arg)
			sh.CrossSent++
		}
		clear(box)
		sh.outboxes[k] = box[:0]
	}
}

// nextEventAt returns the earliest event time across all engines; ok is
// false when every event list is drained (outboxes must already be
// collected, so nothing is left anywhere).
func (sh *Shards) nextEventAt() (next Time, ok bool) {
	next = Never
	for _, e := range sh.engines {
		if at, live := e.NextAt(); live && at <= next {
			next, ok = at, true
		}
	}
	return next, ok
}

// runTo executes the engine's events up to end and pins its clock there,
// even when its event list drained earlier. When it ran an event it
// first notes the clock in ranTo: the time of its latest event whenever
// its list drained.
func (e *Engine) runTo(end Time) {
	n := e.Executed
	e.Run(end)
	if e.Executed > n {
		e.ranTo = e.now
	}
	e.AdvanceTo(end)
}

// runShard runs shard k's engine to end and records the events it ran,
// and when timed, its busy time and when it finished.
func (sh *Shards) runShard(k int, end Time) {
	e, st := sh.engines[k], &sh.stats[k]
	n := e.Executed
	if sh.timed {
		start := wallClock()
		e.runTo(end)
		st.done = wallClock()
		st.busy += st.done.Sub(start)
	} else {
		e.runTo(end)
	}
	st.last = e.Executed - n
}

// runEpoch executes every shard up to end, over the crew when one is
// running, and then accounts the epoch. The shards share no mutable state
// during the epoch (outboxes are single-writer), so the barrier is the only
// synchronization.
func (sh *Shards) runEpoch(end Time) {
	if sh.crew != nil {
		sh.crew.epoch(end)
	} else {
		for k := range sh.engines {
			sh.runShard(k, end)
		}
	}
	var barrier time.Time
	if sh.timed {
		barrier = wallClock()
	}
	var most, all uint64
	for k := range sh.stats {
		st := &sh.stats[k]
		most, all = max(most, st.last), all+st.last
		if sh.timed {
			st.wait += barrier.Sub(st.done)
		}
	}
	sh.sumMax += most
	sh.sumEvents += all
	sh.Epochs++
}

// wallClock reads the wall clock for the shard attribution.
func wallClock() time.Time {
	return time.Now() //lint:allow determinism(shard attribution: busy and barrier-wait times feed obs only, never the schedule or a result)
}

// Run advances the whole sharded world to until (events exactly at until
// still run, matching Engine.Run) and returns Now at exit. It returns
// early when every event list and mailbox drains; when they are all empty
// at exit, the floor and every engine's clock are set back from the last
// barrier to the latest event any shard executed, as the one engine's
// clock stops there at S = 1. Nothing is pending, so no engine's past
// changes, and code between runs may schedule on any engine from Now on.
func (sh *Shards) Run(until Time) Time {
	if len(sh.engines) == 1 {
		// Single-heap fast path: no barriers, no epoch slicing. Setup-time
		// cross events (src==dst==0) still drain through the mailbox so
		// the S=1 path exercises the same staging API.
		sh.collect()
		e := sh.engines[0]
		e.Run(until)
		sh.floor = e.Now()
		return sh.Now()
	}
	if n := sh.crewSize(); n > 0 && sh.floor < until && !sh.empty() {
		sh.startCrew(n)
		defer sh.stopCrew()
	}
	for sh.floor < until {
		sh.collect()
		next, ok := sh.nextEventAt()
		if !ok {
			break
		}
		end := sh.floor + sh.lookahead
		if end < sh.floor { // overflow near Never
			end = until
		}
		// Skip-ahead: if nothing anywhere fires before next, the window
		// (floor, next] is safe — anything sent at t >= next lands at or
		// after next+L, strictly past the barrier.
		if next > end {
			end = next
		}
		if end > until {
			end = until
		}
		sh.runEpoch(end)
		sh.floor = end
	}
	if sh.empty() {
		sh.rewind()
	}
	return sh.Now()
}

// rewind sets the floor and every engine's clock back to the latest event
// any shard executed. The last epoch in which an engine ran an event left
// its list empty, or it would have run a later one, so its ranTo is that
// event; a floor still before the first event stays.
func (sh *Shards) rewind() {
	var last Time
	for _, e := range sh.engines {
		last = max(last, e.ranTo)
	}
	if last >= sh.floor {
		return
	}
	sh.floor = last
	for _, e := range sh.engines {
		e.now = last
	}
}

// empty reports that every event list and outbox is empty.
func (sh *Shards) empty() bool {
	for _, box := range sh.outboxes {
		if len(box) > 0 {
			return false
		}
	}
	_, pending := sh.nextEventAt()
	return !pending
}

// RunAll runs until every event list and cross-shard mailbox is empty. Use
// with workloads that are guaranteed to terminate.
func (sh *Shards) RunAll() Time { return sh.Run(Never) }

// ExecutedTotal sums handler executions across shards; the total is
// shard-count-invariant for a deterministic model.
func (sh *Shards) ExecutedTotal() uint64 {
	var n uint64
	for _, e := range sh.engines {
		n += e.Executed
	}
	return n
}
