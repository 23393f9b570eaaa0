package network

import (
	"testing"
	"unsafe"

	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// Raw is a generic payload with an explicit size and kind.
type Raw struct {
	K    string
	Size int
}

// WireSize implements Payload.
func (r Raw) WireSize() int { return r.Size }

// Kind implements Payload.
func (r Raw) Kind() string {
	if r.K == "" {
		return "raw"
	}
	return r.K
}

// dedupEntries reports the total number of live flood-dedup entries
// across all processes (test hook for the bounded-memory guarantee).
func (nt *Net) dedupEntries() int {
	n := 0
	for i := range nt.seen {
		n += len(nt.seen[i])
	}
	return n
}

func newTestNet(topo Topology, delay sim.DelayModel) (*sim.Engine, *Net) {
	eng := sim.NewEngine(7)
	return eng, New(eng, topo, delay)
}

// netSend and netBroadcast send p from src on the one send path, in a body
// of their own with no flight stamp.
func netSend(nt *Net, src, dst int, p Payload) uint64 {
	return nt.SendBody(src, dst, &Body{Payload: p})
}

func netBroadcast(nt *Net, src int, p Payload) uint64 {
	return nt.BroadcastBody(src, &Body{Payload: p})
}

func TestDirectSendDelivers(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 3}, sim.DeltaBounded{Min: 5, Max: 5})
	var got []Message
	var at sim.Time
	nt.Register(2, func(m Message, now sim.Time) { got = append(got, m); at = now })
	eng.At(10, func(sim.Time) { netSend(nt, 0, 2, Raw{K: "test", Size: 4}) })
	eng.RunAll()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages", len(got))
	}
	m := got[0]
	if m.Src != 0 || m.Dst != 2 {
		t.Fatalf("message %+v", m)
	}
	if at != 15 {
		t.Fatalf("delivery time %v want 15", at)
	}
	if nt.Stats.Sent != 1 || nt.Stats.Delivered != 1 || nt.Stats.Dropped != 0 {
		t.Fatalf("stats %+v", nt.Stats)
	}
	if nt.Stats.Bytes != int64(4+headerBytes) {
		t.Fatalf("bytes %d", nt.Stats.Bytes)
	}
	if nt.Stats.ByKind["test"] != 1 {
		t.Fatal("per-kind count missing")
	}
}

func TestDirectBroadcast(t *testing.T) {
	eng, nt := newTestNet(Ring{Nodes: 5}, sim.Synchronous{})
	counts := make([]int, 5)
	for i := 0; i < 5; i++ {
		i := i
		nt.Register(i, func(Message, sim.Time) { counts[i]++ })
	}
	eng.At(0, func(sim.Time) { netBroadcast(nt, 2, Raw{Size: 1}) })
	eng.RunAll()
	for i, c := range counts {
		want := 1
		if i == 2 {
			want = 0
		}
		if c != want {
			t.Fatalf("process %d received %d", i, c)
		}
	}
	if nt.Stats.Sent != 4 {
		t.Fatalf("direct broadcast sent %d link messages", nt.Stats.Sent)
	}
}

func TestFloodBroadcastReachesAllOnSparseGraph(t *testing.T) {
	eng, nt := newTestNet(Ring{Nodes: 8}, sim.DeltaBounded{Min: 1, Max: 3})
	nt.Flood = true
	counts := make([]int, 8)
	for i := range counts {
		i := i
		nt.Register(i, func(Message, sim.Time) { counts[i]++ })
	}
	eng.At(0, func(sim.Time) { netBroadcast(nt, 0, Raw{Size: 2}) })
	eng.RunAll()
	for i, c := range counts {
		want := 1
		if i == 0 {
			want = 0
		}
		if c != want {
			t.Fatalf("flood: process %d received %d times (dup suppression?)", i, c)
		}
	}
}

func TestFloodDoesNotCrossPartitions(t *testing.T) {
	m := NewMutable(4)
	m.AddLink(0, 1) // 2,3 isolated
	eng, nt := newTestNet(m, sim.Synchronous{})
	nt.Flood = true
	reached := make([]bool, 4)
	for i := range reached {
		i := i
		nt.Register(i, func(Message, sim.Time) { reached[i] = true })
	}
	eng.At(0, func(sim.Time) { netBroadcast(nt, 0, Raw{}) })
	eng.RunAll()
	if !reached[1] || reached[2] || reached[3] {
		t.Fatalf("partition breach: %v", reached)
	}
}

func TestLossCounted(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 2}, sim.WithLoss{Inner: sim.Synchronous{}, P: 1})
	delivered := 0
	nt.Register(1, func(Message, sim.Time) { delivered++ })
	eng.At(0, func(sim.Time) { netSend(nt, 0, 1, Raw{}) })
	eng.RunAll()
	if delivered != 0 || nt.Stats.Dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, nt.Stats.Dropped)
	}
}

func TestUnregisteredHandlerIsSafe(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 2}, sim.Synchronous{})
	eng.At(0, func(sim.Time) { netSend(nt, 0, 1, Raw{}) })
	eng.RunAll() // must not panic
	if nt.Stats.Delivered != 1 {
		t.Fatal("delivery not counted")
	}
}

func TestMessageIDsUniquePerLogicalSend(t *testing.T) {
	for _, flood := range []bool{false, true} {
		eng, nt := newTestNet(FullMesh{Nodes: 3}, sim.Synchronous{})
		nt.Flood = flood
		var ids []uint64
		eng.At(0, func(sim.Time) {
			ids = append(ids, netBroadcast(nt, 0, Raw{}), netSend(nt, 1, 2, Raw{}), netBroadcast(nt, 2, Raw{}))
		})
		eng.RunAll()
		if ids[0] == 0 || ids[0] == ids[1] || ids[1] == ids[2] || ids[0] == ids[2] {
			t.Fatalf("flood=%v: ids %v, want three distinct non-zero", flood, ids)
		}
	}
}

// TestNetSendAllocations pins the single-heap send path's allocation
// contract, the one TestShardedSendAllocations pins on the sharded
// transport: a direct logical send allocates the body its copies share (the
// one netSend/netBroadcast make) and nothing per copy, scheduled or
// delivered; a flood's hop copies share that body too (56 on this mesh).
func TestNetSendAllocations(t *testing.T) {
	const n = 8
	eng, nt := newTestNet(FullMesh{Nodes: n}, sim.DeltaBounded{Min: 2, Max: 4})
	var pl Payload = Raw{Size: 16} // boxed once, outside the measurement
	delivered := 0
	for i := 0; i < n; i++ {
		nt.Register(i, func(Message, sim.Time) { delivered++ })
	}
	broadcast := func() { netBroadcast(nt, 0, pl); eng.RunAll() }
	send := func() { netSend(nt, 0, 1, pl); eng.RunAll() }
	warmUp := func() { // slot pool, heap, dedup maps and scratch reach their size
		for i := 0; i < 8; i++ {
			broadcast()
			send()
		}
		delivered = 0
	}

	const runs = 100 // AllocsPerRun calls once more, to warm up
	warmUp()
	if allocs := testing.AllocsPerRun(runs, broadcast); allocs != 1 {
		t.Errorf("direct broadcast to 7 peers and its deliveries: %.1f allocs, want 1 (the body)", allocs)
	}
	if delivered != (n-1)*(runs+1) {
		t.Errorf("%d deliveries from %d direct broadcasts, want %d each", delivered, runs+1, n-1)
	}
	if allocs := testing.AllocsPerRun(runs, send); allocs != 1 {
		t.Errorf("send and its delivery: %.1f allocs, want 1 (the body)", allocs)
	}

	nt.Flood = true
	warmUp()
	if allocs := testing.AllocsPerRun(runs, broadcast); allocs != 1 {
		t.Errorf("flooded broadcast: %.1f allocs, want 1 (the body every hop shares)", allocs)
	}
	if delivered != (n-1)*(runs+1) {
		t.Errorf("%d deliveries from %d flooded broadcasts, want %d each", delivered, runs+1, n-1)
	}
	if live := nt.dedupEntries(); live != 0 {
		t.Errorf("%d dedup entries survive the settled floods", live)
	}
}

// TestNewBodyIsOneAllocation: NewBody returns the body and a copy of the
// payload in one object, and the body's Payload points at that copy. The
// body stays 64 bytes, so a body holding a strobe fills the 176-byte size
// class its two objects used to.
func TestNewBodyIsOneAllocation(t *testing.T) {
	if sz := unsafe.Sizeof(Body{}); sz > 64 {
		t.Errorf("Body is %d bytes, budget 64", sz)
	}
	p := Raw{K: "k", Size: 3}
	var b *Body
	if allocs := testing.AllocsPerRun(100, func() { b = NewBody(p, flight.Stamp{Seq: 9}) }); allocs != 1 {
		t.Errorf("NewBody: %.1f allocs, want 1", allocs)
	}
	p.Size = 4
	if got, ok := b.Payload.(*Raw); !ok || got.K != "k" || got.Size != 3 || b.Stamp.Seq != 9 {
		t.Errorf("NewBody carries %#v stamped %+v, want a *Raw copy of the payload stamped seq 9", b.Payload, b.Stamp)
	}
}

// TestBodySentOnce: a body is immutable once sent, because copies on other
// shards read it, so a second SendBody or BroadcastBody of it panics on
// both transports — after a suppressed send too, and whichever call sent
// it first.
func TestBodySentOnce(t *testing.T) {
	eng, nt := newTestNet(FullMesh{Nodes: 3}, sim.Synchronous{})
	sh := sim.NewShards(1, 0, 7)
	part := NewSharded(sh, FullMesh{Nodes: 3}, sim.Synchronous{}, ShardMap{Procs: 3, Shards: 1}, 7).Part(0)
	transports := []struct {
		name            string
		send, broadcast func(*Body) uint64
	}{
		{"Net", func(b *Body) uint64 { return nt.SendBody(0, 1, b) }, func(b *Body) uint64 { return nt.BroadcastBody(0, b) }},
		{"ShardPart", func(b *Body) uint64 { return part.SendBody(0, 1, b) }, func(b *Body) uint64 { return part.BroadcastBody(0, b) }},
	}
	panics := func(send func(*Body) uint64, b *Body) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		send(b)
		return false
	}
	for _, tr := range transports {
		for _, first := range []func(*Body) uint64{tr.send, tr.broadcast} {
			for _, second := range []func(*Body) uint64{tr.send, tr.broadcast} {
				b := &Body{Payload: Raw{}}
				if first(b) == 0 {
					t.Fatalf("%s: the first send of a body returned no id", tr.name)
				}
				if !panics(second, b) {
					t.Errorf("%s: a body sent twice did not panic", tr.name)
				}
			}
		}
	}
	eng.RunAll()
	sh.RunAll()

	nt.SetFaults(faults.NewInjector(faults.NewPlan().Crash(0, 0)))
	b := &Body{Payload: Raw{}}
	if nt.SendBody(0, 1, b) != 0 {
		t.Fatal("a crashed sender's send returned an id")
	}
	if !panics(func(b *Body) uint64 { return nt.BroadcastBody(0, b) }, b) {
		t.Error("Net: a body sent twice, the first time suppressed, did not panic")
	}
}

// sampleCounter counts the delay draws of the model it wraps: one per
// link-level transmission that reached the link.
type sampleCounter struct {
	sim.DelayModel
	samples *int64
}

func (m sampleCounter) Sample(r *stats.RNG, src, dst int) (sim.Duration, bool) {
	*m.samples++
	return m.DelayModel.Sample(r, src, dst)
}

// TestNetStatsCountPerCopy: Sent, Bytes and ByKind are bumped once per
// logical send or flood relay step, by the copy count — the totals are
// those of one increment per link-level transmission, cut and lost copies
// included. Every transmission is either cut by the partition or drawn a
// delay exactly once, which counts them independently of Stats.
func TestNetStatsCountPerCopy(t *testing.T) {
	const n = 8
	var samples int64
	lossy := sampleCounter{sim.WithLoss{Inner: sim.DeltaBounded{Min: 2, Max: 4}, P: 0.3}, &samples}
	for _, flood := range []bool{false, true} {
		samples = 0
		eng, nt := newTestNet(FullMesh{Nodes: n}, lossy)
		nt.Flood = flood
		nt.SetFaults(faults.NewInjector(faults.NewPlan().Partition([][]int{{0, 1, 2}, {3, 4, 5, 6, 7}}, 100, 200)))
		for r := 0; r < 30; r++ { // rounds 10..19 fall inside the partition
			src := r % n
			eng.At(sim.Time(10*r), func(sim.Time) {
				netBroadcast(nt, src, Raw{K: "a", Size: 10})
				netSend(nt, src, (src+3)%n, Raw{K: "b", Size: 1})
			})
		}
		eng.RunAll()
		st, cut := nt.Stats, nt.fault.Counts.PartitionDrops.Load()
		if cut == 0 || st.Dropped <= cut {
			t.Fatalf("flood=%v: %d cut, %d dropped: want both partition and loss drops", flood, cut, st.Dropped)
		}
		if st.Sent != samples+cut {
			t.Errorf("flood=%v: sent %d, want %d link-level transmissions (%d drawn + %d cut)", flood, st.Sent, samples+cut, samples, cut)
		}
		if !flood && st.Sent != 30*(n-1)+30 {
			t.Errorf("direct: sent %d, want %d", st.Sent, 30*(n-1)+30)
		}
		a, b := st.ByKind["a"], st.ByKind["b"]
		if a+b != st.Sent || b != 30 || len(st.ByKind) != 2 {
			t.Errorf("flood=%v: by kind %v, want a + b = %d with b = 30", flood, st.ByKind, st.Sent)
		}
		if want := a*(10+headerBytes) + b*(1+headerBytes); st.Bytes != want {
			t.Errorf("flood=%v: %d bytes, want %d", flood, st.Bytes, want)
		}
	}
}

// BenchmarkNetBroadcast is the single-heap counterpart of core's
// BenchmarkShardedBroadcast: one direct broadcast on a 64-node mesh and its
// 63 deliveries. With -benchmem it reads 1 alloc/op, the shared body.
func BenchmarkNetBroadcast(b *testing.B) {
	const n = 64
	eng, nt := newTestNet(FullMesh{Nodes: n}, sim.DeltaBounded{Min: 1, Max: 10})
	for p := 0; p < n; p++ {
		nt.Register(p, func(Message, sim.Time) {})
	}
	var pl Payload = Raw{Size: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netBroadcast(nt, i%n, pl)
		eng.RunAll()
	}
}
