package sim

import (
	"fmt"
	"sync"

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

	// Epochs counts barrier rounds; CrossSent counts cross-shard events
	// staged through mailboxes. Plain fields: they are touched only between
	// epochs, on the coordinating goroutine.
	Epochs    uint64
	CrossSent uint64
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

// SetWorkers selects how an epoch runs: w <= 1 runs the shards one after
// another in shard order on the caller's goroutine; any w > 1 runs every
// shard of the epoch on its own goroutine (w is a switch, not a bound on
// their number). Either way the outcome is identical — shards share no
// mutable state during an epoch — so this only trades goroutines for wall
// clock.
func (sh *Shards) SetWorkers(w int) { sh.workers = w }

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

// runEpoch executes every shard up to end. With workers > 1 shards run on
// their own goroutines; they share no mutable state during the epoch
// (outboxes are single-writer), so the join is the only synchronization.
func (sh *Shards) runEpoch(end Time) {
	if sh.workers > 1 {
		var wg sync.WaitGroup
		wg.Add(len(sh.engines))
		for _, e := range sh.engines {
			go func(e *Engine) {
				defer wg.Done()
				e.runTo(end)
			}(e)
		}
		wg.Wait()
	} else {
		for _, e := range sh.engines {
			e.runTo(end)
		}
	}
	sh.Epochs++
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
