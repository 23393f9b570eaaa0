package sim

import (
	"fmt"

	"pervasive/internal/stats"
)

// Handler is a callback executed at its scheduled virtual time.
type Handler func(now Time)

// EventFunc is the engine's one event form: a function applied at its
// scheduled time to the (body, arg) pair it was scheduled with. A sender
// that schedules many events over shared state passes one fn bound once,
// the shared state as body and the per-event discriminator as arg, and
// pays no closure per event; a Handler is the special case whose body is
// the Handler itself (see runHandler).
//
// It is a func value and not an interface on purpose: pervalint's hotpath
// proof roots at Engine.Step and resolves interface dispatch through the
// implements-sets, so an interface here would pull every implementer's
// callees (trace, flight, fmt) into the kernel's allocation proof. A func
// value is opaque to the call graph, as Handler always was.
type EventFunc func(now Time, body any, arg int)

// runHandler is the EventFunc behind At/AtPri/After: the body is
// the Handler. Func values are pointer-shaped, so the conversion to any
// does not allocate.
func runHandler(now Time, body any, _ int) { body.(Handler)(now) }

// scheduled is one pending event in the engine's slot pool: 64 bytes, one
// cache line. Slots are recycled through a free list; fn is nil while the
// slot is free.
type scheduled struct {
	at   Time
	pri  uint64 // caller-supplied tie-break key, ahead of seq (see AtPri)
	seq  uint64 // FIFO tie-break for equal (timestamp, pri)
	fn   EventFunc
	body any
	arg  int
	next int32 // free-list link while the slot is free
}

// nilSlot terminates the free list.
const nilSlot int32 = -1

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; construct with NewEngine.
//
// The event list is a hand-rolled 4-ary index heap: the heap slice holds
// int32 indices into a slot pool of scheduled entries, recycled through a
// free list. Compared to container/heap this removes the per-event
// *scheduled allocation and the heap.Interface boxing on every push/pop.
// There is no cancellation: a scheduled event always fires, as every event
// of the paper's execution model does (DESIGN.md §1.5).
type Engine struct {
	now      Time
	seq      uint64
	heap     []int32
	pool     []scheduled
	freeHead int32
	rng      *stats.RNG
	// Executed counts handlers actually run, for kernel benchmarks.
	Executed uint64
	// Scheduled counts events accepted by At/After; MaxHeapDepth is the
	// event list's high-watermark. They are plain fields — the kernel is
	// single-threaded, so instrumentation costs one increment, not an
	// atomic — published to an obs registry at snapshot time by
	// obs.CollectEngine (sim cannot import obs, which uses sim.Time).
	Scheduled    uint64
	MaxHeapDepth int
	// ranTo is the clock at the end of the latest sharded epoch in which
	// the engine ran an event, before the barrier pinned it (see runTo).
	ranTo Time
}

// NewEngine creates an engine whose randomness derives from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: stats.NewRNG(seed), freeHead: nilSlot}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's root random stream. Components that need
// isolated streams should call RNG().Fork() once at setup.
func (e *Engine) RNG() *stats.RNG { return e.rng }

// Pending returns the number of events still scheduled to fire.
func (e *Engine) Pending() int { return len(e.heap) }

// NextAt returns the timestamp of the earliest pending event; ok is
// false when the event list is drained. Used by the sharded engine to skip
// empty epochs during drain.
func (e *Engine) NextAt() (at Time, ok bool) {
	s := e.peek()
	if s == nilSlot {
		return 0, false
	}
	return e.pool[s].at, true
}

// AdvanceTo moves virtual time forward to t without executing events. It is
// the epoch-barrier hook for the sharded engine: after a shard runs to an
// epoch end its clock is pinned there even if its own event list drained
// earlier, so cross-shard deliveries staged for the next epoch can never
// look like scheduling into the past. Moving backward panics, with a
// constant message: the barrier reaches it from every epoch, whose
// closure is proved allocation-free.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic("sim: AdvanceTo into the past")
	}
	e.now = t
}

// alloc takes a slot from the free list, or grows the pool.
func (e *Engine) alloc() int32 {
	if s := e.freeHead; s != nilSlot {
		e.freeHead = e.pool[s].next
		return s
	}
	e.pool = append(e.pool, scheduled{}) //lint:allow hotpath(amortized growth: the pool doubles O(log n) times and is recycled through the free list thereafter)
	return int32(len(e.pool) - 1)
}

// release drops the slot's references so a fired event's body can be
// collected, and returns it to the free list.
func (e *Engine) release(s int32) {
	p := &e.pool[s]
	p.fn, p.body = nil, nil
	p.next = e.freeHead
	e.freeHead = s
}

// less orders heap entries by (time, pri, seq).
func (e *Engine) less(a, b int32) bool {
	pa, pb := &e.pool[a], &e.pool[b]
	if pa.at != pb.at {
		return pa.at < pb.at
	}
	if pa.pri != pb.pri {
		return pa.pri < pb.pri
	}
	return pa.seq < pb.seq
}

// siftUp restores the 4-ary heap property from leaf i toward the root.
func (e *Engine) siftUp(i int) {
	h := e.heap
	s := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.less(s, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = s
}

// siftDown restores the 4-ary heap property from i toward the leaves.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	s := h[i]
	for {
		first := i<<2 + 1 // leftmost child
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(h[c], h[min]) {
				min = c
			}
		}
		if !e.less(h[min], s) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = s
}

// push inserts slot s into the heap.
func (e *Engine) push(s int32) {
	e.heap = append(e.heap, s) //lint:allow hotpath(amortized growth: the heap tracks the pool's high-watermark and stops growing once the event population peaks)
	e.siftUp(len(e.heap) - 1)
}

// pop removes and returns the minimum slot. The heap must be non-empty.
func (e *Engine) pop() int32 {
	h := e.heap
	s := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return s
}

// peek returns the slot of the earliest pending event, or nilSlot when
// the list is drained.
func (e *Engine) peek() int32 {
	if len(e.heap) == 0 {
		return nilSlot
	}
	return e.heap[0]
}

// At schedules fn to run at absolute virtual time at. Scheduling into the
// past panics: that always indicates a model bug.
func (e *Engine) At(at Time, fn Handler) { e.AtPri(at, 0, fn) }

// AtPri schedules fn at time at with an explicit priority key: events fire
// in (at, pri, seq) order. seq is the engine's insertion counter, so it is
// schedule-order dependent; pri lets callers impose an ordering that does
// not depend on when the event was inserted. The sharded engine derives
// pri from (source, per-source send counter), which makes event order at
// equal timestamps identical whether a delivery was scheduled directly
// (same shard) or staged through an epoch mailbox (cross shard). Local
// events keep pri 0 and therefore sort ahead of deliveries at the same
// instant.
func (e *Engine) AtPri(at Time, pri uint64, fn Handler) {
	if fn == nil {
		panic("sim: nil handler")
	}
	e.AtFunc(at, pri, runHandler, fn, 0)
}

// AtFunc is AtPri for the engine's native event form: at time at, under
// priority key pri, fn runs as fn(now, body, arg). Handler events and
// AtFunc events share one slot layout, one (at, pri, seq) order and one
// dispatch in Step.
func (e *Engine) AtFunc(at Time, pri uint64, fn EventFunc, body any, arg int) {
	if fn == nil {
		panic("sim: nil handler")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", at, e.now)) //lint:allow hotpath(cold panic path: the format and boxing run once, immediately before the process dies)
	}
	s := e.alloc()
	p := &e.pool[s]
	p.at, p.pri, p.seq = at, pri, e.seq
	p.fn, p.body, p.arg = fn, body, arg
	e.seq++
	e.push(s)
	e.Scheduled++
	if len(e.heap) > e.MaxHeapDepth {
		e.MaxHeapDepth = len(e.heap)
	}
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn Handler) {
	e.At(e.now+d, fn)
}

// Step executes the single earliest pending event, advancing virtual time.
// It reports whether an event was available.
func (e *Engine) Step() bool {
	s := e.peek()
	if s == nilSlot {
		return false
	}
	e.pop()
	p := &e.pool[s]
	e.now = p.at
	fn, body, arg := p.fn, p.body, p.arg
	e.release(s) // before fn: the handler may schedule into the freed slot
	e.Executed++
	fn(e.now, body, arg)
	return true
}

// Run executes events in timestamp order until the event list drains or
// the next event lies strictly after until. Events scheduled exactly at
// until still run. It returns the virtual time at exit.
func (e *Engine) Run(until Time) Time {
	for {
		s := e.peek()
		if s == nilSlot {
			break
		}
		if e.pool[s].at > until {
			e.now = until
			break
		}
		e.Step()
	}
	return e.now
}

// RunAll executes all pending events with no horizon. Use with workloads
// that are guaranteed to terminate.
func (e *Engine) RunAll() Time { return e.Run(Never) }
