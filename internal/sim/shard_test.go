package sim

import (
	"fmt"
	"reflect"
	"testing"

	"pervasive/internal/stats"
)

// shardNet is a minimal transport over a Shards engine, mimicking what
// internal/network does: per-source priority keys, direct AtPri for
// same-shard sends, CrossFrom for cross-shard sends.
type shardNet struct {
	sh    *Shards
	procs int
	seqs  []uint32
}

func (n *shardNet) shardOf(p int) int { return p * n.sh.N() / n.procs }

func (n *shardNet) send(from, to int, at Time, fn Handler) {
	pri := uint64(from+1)<<32 | uint64(n.seqs[from])
	n.seqs[from]++
	src, dst := n.shardOf(from), n.shardOf(to)
	if src == dst {
		n.sh.Engine(src).AtPri(at, pri, fn)
	} else {
		n.sh.CrossFrom(src, dst, at, pri, fn)
	}
}

// pingLog runs a deterministic ping workload over s shards and returns the
// per-proc execution logs. Every proc forwards a hop-limited token with a
// per-proc RNG (never the engines' RNGs — those are shard-dependent).
func pingLog(t *testing.T, procs, s, hops int, workers int) [][]Time {
	t.Helper()
	const look = 100 * Microsecond
	sh := NewShards(s, look, 42)
	sh.SetWorkers(workers)
	net := &shardNet{sh: sh, procs: procs, seqs: make([]uint32, procs)}
	logs := make([][]Time, procs)
	rngs := make([]*stats.RNG, procs)
	for p := range rngs {
		rngs[p] = stats.NewRNG(uint64(1000 + p))
	}
	var bounce func(p, hop int) Handler
	bounce = func(p, hop int) Handler {
		return func(now Time) {
			logs[p] = append(logs[p], now)
			if hop >= hops {
				return
			}
			dst := int(rngs[p].Int63n(int64(procs)))
			d := look + Duration(rngs[p].Int63n(int64(look)))
			net.send(p, dst, now+d, bounce(dst, hop+1))
		}
	}
	for p := 0; p < procs; p++ {
		net.send(p, p, Time(p+1)*Millisecond, bounce(p, 0))
	}
	sh.RunAll()
	return logs
}

// TestShardsByteIdenticalAcrossShardCounts is the kernel-level determinism
// oracle: the same workload must produce identical per-proc execution logs
// at every shard count and worker count.
func TestShardsByteIdenticalAcrossShardCounts(t *testing.T) {
	ref := pingLog(t, 12, 1, 40, 1)
	for _, s := range []int{2, 3, 4, 7, 12} {
		for _, w := range []int{1, 4} {
			got := pingLog(t, 12, s, 40, w)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("S=%d workers=%d: execution log diverged from S=1", s, w)
			}
		}
	}
}

// TestShardMailboxMergeOrder checks the (time, pri, seq) merge: deliveries
// staged out of order through different mailboxes fire in key order, and a
// local pri-0 event at the same instant fires before any delivery.
func TestShardMailboxMergeOrder(t *testing.T) {
	sh := NewShards(3, 10*Microsecond, 1)
	var order []string
	at := Time(50 * Microsecond)
	mark := func(s string) Handler {
		return func(Time) { order = append(order, s) }
	}
	// Stage cross events into shard 2 in scrambled priority order, from
	// two different source shards.
	sh.CrossFrom(0, 2, at, 30, mark("pri30"))
	sh.CrossFrom(1, 2, at, 10, mark("pri10"))
	sh.CrossFrom(0, 2, at, 20, mark("pri20"))
	sh.Engine(2).At(at, mark("local"))
	sh.RunAll()
	want := []string{"local", "pri10", "pri20", "pri30"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("merge order = %v, want %v", order, want)
	}
}

// TestShardLookaheadViolationPanics: a cross event landing at or before the
// executed floor must panic loudly, not reorder history.
func TestShardLookaheadViolationPanics(t *testing.T) {
	sh := NewShards(2, 10*Microsecond, 1)
	sh.Engine(0).At(5*Microsecond, func(now Time) {
		// Arrival at now — below the minimum delay — beats the lookahead.
		sh.CrossFrom(0, 1, now, 1, func(Time) {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	sh.RunAll()
}

// TestShardSendAtTimeZeroWithLookaheadDelay: the tightest legal send — made
// at t = 0 with delay exactly L — lands at L, after the first epoch, and is
// delivered rather than reported as a lookahead violation.
func TestShardSendAtTimeZeroWithLookaheadDelay(t *testing.T) {
	const look = 5 * Millisecond
	sh := NewShards(2, look, 1)
	var got []Time
	sh.Engine(0).At(0, func(now Time) {
		sh.CrossFrom(0, 1, now+look, 1, func(at Time) { got = append(got, at) })
	})
	if now := sh.Now(); now != 0 {
		t.Fatalf("Now() before the first epoch = %v, want 0", now)
	}
	sh.RunAll()
	if !reflect.DeepEqual(got, []Time{look}) {
		t.Fatalf("deliveries = %v, want one at %v", got, Time(look))
	}
}

func TestShardZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewShards(2, 0, …) did not panic")
		}
	}()
	NewShards(2, 0, 1)
}

// TestShardSkipAhead: widely spaced events must not cost one epoch per
// lookahead window. 3 events 1s apart with L=1ms would be ~3000 epochs
// without skip-ahead; with it, a handful.
func TestShardSkipAhead(t *testing.T) {
	sh := NewShards(2, Millisecond, 7)
	fired := 0
	for i := 0; i < 3; i++ {
		sh.Engine(i%2).At(Time(i+1)*Second, func(Time) { fired++ })
	}
	sh.RunAll()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	if sh.Epochs > 10 {
		t.Fatalf("Epochs = %d; skip-ahead is not engaging", sh.Epochs)
	}
}

// TestShardRunHorizon: Run(until) stops at the horizon and resumes.
func TestShardRunHorizon(t *testing.T) {
	sh := NewShards(2, 10*Microsecond, 7)
	var got []Time
	for i := 1; i <= 4; i++ {
		at := Time(i) * 100 * Microsecond
		sh.Engine(i%2).At(at, func(now Time) { got = append(got, now) })
	}
	sh.Run(250 * Microsecond)
	if len(got) != 2 {
		t.Fatalf("events before horizon = %d, want 2", len(got))
	}
	sh.RunAll()
	if len(got) != 4 {
		t.Fatalf("events after drain = %d, want 4", len(got))
	}
}

// TestAtPriOrdersBeforeSeq: at equal timestamps, pri dominates insertion
// order; seq only breaks pri ties.
func TestAtPriOrdersBeforeSeq(t *testing.T) {
	e := NewEngine(1)
	var order []string
	at := Time(10 * Microsecond)
	e.AtPri(at, 5, func(Time) { order = append(order, "b") })
	e.AtPri(at, 1, func(Time) { order = append(order, "a") })
	e.AtPri(at, 5, func(Time) { order = append(order, "c") }) // same pri: FIFO
	e.At(at, func(Time) { order = append(order, "zero") })    // pri 0 first
	e.RunAll()
	want := []string{"zero", "a", "b", "c"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
