package sim

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// spinLimit is how many times a waiting crew member probes its condition
// before it parks: about 0.65 ms on a 2-vCPU x86 box (20 ms under -race).
// It covers a helper's wait through the serial part of a barrier (collect,
// the next epoch's bounds) and the coordinator's wait for the last shard,
// so on fleet-wide-par a member parks in fewer than one epoch in three
// hundred; shorter spins that park more often measured slower there. It
// also bounds the CPU a waiter burns when a run stalls, and when the crew
// has fewer processors than members, a waiter that parks lets the member
// it waits for run.
const spinLimit = 1 << 18

// waiter is one crew member's park slot. A member that has spun out sets
// sleeping and blocks on wake; whoever makes its condition true clears
// the flag and sends one token. The flag is claimed by compare-and-swap on
// both sides, so exactly one token is sent per sleep and none is lost when
// the condition turns true between the flag and the block.
type waiter struct {
	sleeping atomic.Bool
	wake     chan struct{}
}

// await returns once ready holds, probing it up to spinLimit times before
// it parks.
func (w *waiter) await(ready func() bool) {
	for spins := 0; !ready(); spins++ {
		if spins >= spinLimit {
			w.park(ready)
			return
		}
	}
}

// park blocks until ready holds. It is called after the spin ran out;
// ready is re-checked once the flag is up, and if a waker already took
// the flag its token is consumed before returning.
func (w *waiter) park(ready func() bool) {
	for !ready() {
		w.sleeping.Store(true)
		if ready() {
			if !w.sleeping.CompareAndSwap(true, false) {
				<-w.wake
			}
			return
		}
		<-w.wake
	}
}

// rouse wakes w if it is parked.
func (w *waiter) rouse() {
	if w.sleeping.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// claimSlot is one entry of an epoch's claim order.
type claimSlot struct {
	last  uint64 // events the shard ran in the previous epoch
	shard int32
}

// heavierFirst orders claim slots by the previous epoch's events,
// descending, then by shard index.
func heavierFirst(a, b claimSlot) int {
	switch {
	case a.last != b.last:
		if a.last > b.last {
			return -1
		}
		return 1
	case a.shard < b.shard:
		return -1
	case a.shard > b.shard:
		return 1
	}
	return 0
}

// crew is the set of goroutines one multi-shard Run spreads its epochs
// over: the coordinator (Run's own goroutine) and helpers started once
// per Run. In each epoch every member claims shards from one counter, in
// the order of the events each shard ran in the previous epoch,
// heaviest first, until none is left; the coordinator then waits for the
// last to finish. Which member runs a shard, and when, changes no output:
// shards share no mutable state during an epoch.
type crew struct {
	sh *Shards
	// claim packs the epoch's generation (high 32 bits) with the index of
	// the next unclaimed entry of order (low 32 bits). A member claims by
	// compare-and-swap against the generation it serves, so one that is
	// late for an epoch can never claim into the next.
	claim atomic.Uint64
	// finished counts the shards of the current epoch that have run.
	finished atomic.Int32
	stop     atomic.Bool
	// order and end are written by the coordinator between epochs and
	// read by a helper only after it claimed a shard of the epoch: the
	// barrier cannot pass before that shard finishes.
	order []claimSlot
	end   Time
	gen   uint32

	coord   waiter
	helpers []waiter
	exited  sync.WaitGroup

	// mu guards failure, the first panic a helper recovered.
	mu      sync.Mutex
	failed  bool
	failure any
}

// crewSize is how many helpers a Run starts: one fewer than the members
// the epoch can use, bounded by the workers asked for, the shards and the
// processors.
func (sh *Shards) crewSize() int {
	return min(sh.workers, len(sh.engines), runtime.GOMAXPROCS(0)) - 1
}

// startCrew starts n helper goroutines for one Run.
func (sh *Shards) startCrew(n int) {
	c := &crew{sh: sh, order: make([]claimSlot, len(sh.engines)), helpers: make([]waiter, n)}
	for k := range c.order {
		c.order[k].shard = int32(k)
	}
	c.coord.wake = make(chan struct{}, 1)
	c.exited.Add(n)
	for i := range c.helpers {
		c.helpers[i].wake = make(chan struct{}, 1)
		go c.help(&c.helpers[i])
	}
	sh.crew = c
}

// stopCrew stops the helpers and waits until each has returned. It runs
// deferred from Run, so a panic on the coordinator also ends the crew,
// after the helpers finish the shards they hold.
func (sh *Shards) stopCrew() {
	c := sh.crew
	sh.crew = nil
	c.stop.Store(true)
	for i := range c.helpers {
		c.helpers[i].rouse()
	}
	c.exited.Wait()
}

// epoch runs one epoch to end over the crew and returns once every shard
// has run. A panic a helper recovered is raised again here, with the same
// value, after the barrier.
func (c *crew) epoch(end Time) {
	sh := c.sh
	for i := range c.order {
		c.order[i].last = sh.stats[c.order[i].shard].last
	}
	slices.SortFunc(c.order, heavierFirst)
	c.end = end
	c.finished.Store(0)
	c.gen++
	c.claim.Store(uint64(c.gen) << 32)
	for i := range c.helpers {
		c.helpers[i].rouse()
	}
	c.work(c.gen, false)
	c.coord.await(c.epochDone)
	if c.failed {
		panic(c.failure)
	}
}

// epochDone reports that every shard of the current epoch has run.
func (c *crew) epochDone() bool { return c.finished.Load() == int32(len(c.order)) }

// work claims and runs shards of generation gen until none is left. A
// helper runs each through runCaught, so a handler's panic is held for
// the coordinator instead of killing the process.
func (c *crew) work(gen uint32, caught bool) {
	for {
		v := c.claim.Load()
		i := int(uint32(v))
		if uint32(v>>32) != gen || i >= len(c.order) {
			return
		}
		if !c.claim.CompareAndSwap(v, v+1) {
			continue
		}
		k := int(c.order[i].shard)
		if caught {
			c.runCaught(k)
		} else {
			c.sh.runShard(k, c.end)
			c.finish()
		}
	}
}

// finish counts one shard of the epoch as run and wakes the coordinator
// when it was the last.
func (c *crew) finish() {
	if c.finished.Add(1) == int32(len(c.order)) {
		c.coord.rouse()
	}
}

// runCaught runs shard k on a helper and counts it as run however it
// ends. A panic in a handler, or a runtime.Goexit, is recorded, so the
// barrier completes and the coordinator raises it.
func (c *crew) runCaught(k int) {
	ok := false
	defer c.settle(&ok)
	c.sh.runShard(k, c.end)
	ok = true
}

// settle is runCaught's deferred half. On a Goexit the helper's goroutine
// still ends, after its shard is counted.
func (c *crew) settle(ok *bool) {
	if !*ok {
		r := recover()
		if r == nil {
			r = "sim: a handler called runtime.Goexit on a crew goroutine"
		}
		c.mu.Lock()
		if !c.failed {
			c.failed, c.failure = true, r
		}
		c.mu.Unlock()
	}
	c.finish()
}

// help is a helper's loop: wait for the next generation, spinning and
// then parking, claim shards of it, repeat until stopped.
func (c *crew) help(w *waiter) {
	defer c.exited.Done()
	var served uint32
	fresh := func() bool { return uint32(c.claim.Load()>>32) != served || c.stop.Load() }
	for {
		w.await(fresh)
		if c.stop.Load() {
			return
		}
		served = uint32(c.claim.Load() >> 32)
		c.work(served, true)
	}
}
