package network

import (
	"fmt"
	"sync"
	"testing"

	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/sim"
)

// serialMsg is a payload that names the send it belongs to.
type serialMsg struct{ serial int }

func (*serialMsg) WireSize() int { return 8 }
func (*serialMsg) Kind() string  { return "serial" }

var (
	_ Recycler = (*ShardPart)(nil)
	_ Recycler = (*Net)(nil)
)

// bodySender is the sending surface both transports give a process.
type bodySender interface {
	SendBody(src, dst int, b *Body) uint64
	BroadcastBody(src int, b *Body) uint64
}

// releaseRig is one transport under TestBodiesReleasedOnce: its pool, the
// sending surface of process i, how to run an action at process i's time
// t, how to run the schedule out, and the summed counters.
type releaseRig struct {
	pool     *BodyPool
	register func(i int, h Handler)
	sender   func(i int) bodySender
	at       func(i int, t sim.Time, fn sim.Handler)
	run      func() sim.Time
	stats    func() Stats
}

// TestBodiesReleasedOnce: every pooled body a recycling transport sends
// goes back to the pool exactly once, and only after its last scheduled
// copy has landed — under crashes (suppressed sends and arrival drops),
// partition cuts, link loss, and duplicate and reorder windows. It runs on
// ShardedNet at S ∈ {1, 4} shards by 1 or 4 workers, and on Net with
// direct broadcasts and with Flood, whose hop copies count against the one
// body and whose dedup entries go with it. The bodies come from a pool the
// transport never returns to, so none is reused and each release is seen
// against the one send it belongs to.
func TestBodiesReleasedOnce(t *testing.T) {
	const n = 64 // sensors 0..n-1 and the checker n, which every sensor reaches
	plan := faults.NewPlan().
		Crash(5, 100).Recover(5, 300). // sends from 5 are suppressed, copies to it die on arrival
		Crash(12, 150).                // for good
		Crash(n, 420).Recover(n, 460).
		Partition([][]int{intRange(0, 32), intRange(32, n+1)}, 200, 400).
		Duplicate(250, 600, 0.5).
		Reorder(350, 700, 10)
	delay := sim.WithLoss{Inner: sim.DeltaBounded{Min: 2, Max: 6}, P: 0.1}
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("S=%d/W=%d", shards, workers), func(t *testing.T) {
				smap := ShardMap{Procs: n + 1, Shards: shards}
				sh := sim.NewShards(shards, sim.MinDelayBound(delay), 7)
				sh.SetWorkers(workers)
				sn := NewSharded(sh, Grid{Rows: 8, Cols: 8}, delay, smap, 7)
				sn.NeighborScope = true
				sn.AlwaysReach = []int{n}
				in := faults.NewInjector(plan)
				sn.SetFaults(in)
				checkReleasedOnce(t, n, in, releaseRig{
					pool: &sn.pool, register: sn.Register,
					sender: func(i int) bodySender { return sn.Part(smap.Of(i)) },
					at:     func(i int, t sim.Time, fn sim.Handler) { sh.Engine(smap.Of(i)).At(t, fn) },
					run:    sh.RunAll, stats: sn.TotalStats,
				})
			})
		}
	}
	for _, flood := range []bool{false, true} {
		t.Run(map[bool]string{false: "Net/direct", true: "Net/flood"}[flood], func(t *testing.T) {
			eng := sim.NewEngine(7)
			nt := New(eng, Grid{Rows: 5, Cols: 13}, delay) // n+1 nodes, the checker a grid node
			nt.Flood = flood
			in := faults.NewInjector(plan)
			nt.SetFaults(in)
			checkReleasedOnce(t, n, in, releaseRig{
				pool: &nt.pool, register: nt.Register,
				sender: func(int) bodySender { return nt },
				at:     func(_ int, t sim.Time, fn sim.Handler) { eng.At(t, fn) },
				run:    eng.RunAll, stats: func() Stats { return nt.Stats },
			})
			if live := nt.dedupEntries(); live != 0 {
				t.Errorf("%d dedup entries survive the settled run", live)
			}
		})
	}
}

// checkReleasedOnce sends 60 rounds from each of the n+1 processes of rig
// — every fourth a direct send to the checker n, the rest broadcasts —
// and checks that each body is released once, after its last copy landed,
// and that the plan behind in produced every kind of fault.
func checkReleasedOnce(t *testing.T, n int, in *faults.Injector, rig releaseRig) {
	const rounds = 60
	var mu sync.Mutex
	released := make(map[int]int)
	delivered := 0
	rig.pool.onPut = func(b *Body) {
		mu.Lock()
		released[b.Payload.(*serialMsg).serial]++
		mu.Unlock()
	}
	for i := 0; i <= n; i++ {
		rig.register(i, func(m Message, _ sim.Time) {
			serial := m.Payload.(*serialMsg).serial
			mu.Lock()
			defer mu.Unlock()
			delivered++
			if released[serial] > 0 {
				t.Errorf("a copy of send %d landed after its body was released", serial)
			}
		})
	}
	var fresh BodyPool // never released into: every body is new
	for i := 0; i <= n; i++ {
		tr := rig.sender(i)
		for r := 1; r <= rounds; r++ {
			serial := i*rounds + r
			rig.at(i, sim.Time(10*r+i%7), func(sim.Time) {
				b, p := GetBody[serialMsg](&fresh)
				p.serial, b.Stamp = serial, flight.Stamp{Seq: uint64(serial)}
				if r%4 == 0 && i < n {
					tr.SendBody(i, n, b)
				} else {
					tr.BroadcastBody(i, b)
				}
			})
		}
	}
	rig.run()

	for i := 0; i <= n; i++ {
		for r := 1; r <= rounds; r++ {
			if got := released[i*rounds+r]; got != 1 {
				t.Fatalf("send %d of process %d: body released %d times, want 1", r, i, got)
			}
		}
	}
	if len(released) != (n+1)*rounds {
		t.Fatalf("%d bodies released, want %d", len(released), (n+1)*rounds)
	}
	st := rig.stats()
	if int64(delivered) != st.Delivered {
		t.Fatalf("handlers saw %d copies, transport delivered %d", delivered, st.Delivered)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"suppressed sends", in.Counts.SuppressedSends.Load()},
		{"crash drops", in.Counts.CrashDrops.Load()},
		{"partition drops", in.Counts.PartitionDrops.Load()},
		{"duplicates", in.Counts.Duplicates.Load()},
		{"reorders", in.Counts.Reorders.Load()},
		{"losses", st.Dropped - in.Counts.CrashDrops.Load() - in.Counts.PartitionDrops.Load()},
	} {
		if c.v == 0 {
			t.Errorf("the plan produced no %s: the run does not cover them", c.name)
		}
	}
}

func intRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestGetBody: a pooled body comes back unstamped, marked pooled and
// unsent, with the payload it carried last; a pooled body of another
// payload type is not handed out as this one.
func TestGetBody(t *testing.T) {
	var pool BodyPool
	b, p := GetBody[serialMsg](&pool)
	if b.Payload != Payload(p) || b.state != pooledBit || p.serial != 0 {
		t.Fatalf("a new pooled body: payload %v (want %v), state %#x, serial %d", b.Payload, p, b.state, p.serial)
	}
	p.serial, b.Stamp = 9, flight.Stamp{Seq: 9}
	b.Seal(0)
	b.state = sentBit | pooledBit // every copy landed
	pool.release(b)
	again, q := GetBody[serialMsg](&pool)
	if again.Stamp != (flight.Stamp{}) || again.state != pooledBit {
		t.Fatalf("a recycled body: stamp %+v, state %#x; want it unstamped and unsent", again.Stamp, again.state)
	}
	if again == b && q.serial != 9 {
		t.Fatalf("the recycled body carries serial %d, want the 9 it was released with", q.serial)
	}

	other := NewBody(Raw{K: "raw"}, flight.Stamp{})
	other.state = sentBit | pooledBit
	pool.release(other)
	if b, p := GetBody[serialMsg](&pool); b == other || b.Payload != Payload(p) {
		t.Fatal("a pooled body of another payload type came back as a serialMsg body")
	}
}
