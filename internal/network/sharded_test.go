package network

import (
	"testing"

	"pervasive/internal/sim"
)

// TestShardedSendAllocations pins the sharded send path's allocation
// contract: a logical send allocates the body its copies share and nothing
// per copy — not when it is scheduled, not through the cross-shard mailbox,
// not when it is delivered. Node 5 of the 4×4 grid is interior; at S = 2 its
// neighbour 9 and the checker 16 live on the other shard.
func TestShardedSendAllocations(t *testing.T) {
	delay := sim.DeltaBounded{Min: 2, Max: 4}
	var pl Payload = Raw{Size: 16} // boxed once, outside the measurement
	for _, shards := range []int{1, 2} {
		sh := sim.NewShards(shards, delay.Min, 7)
		sn := NewSharded(sh, Grid{Rows: 4, Cols: 4}, delay, ShardMap{Procs: 17, Shards: shards}, 7)
		sn.NeighborScope = true
		sn.AlwaysReach = []int{16}
		delivered := 0
		for i := 0; i < sn.N(); i++ {
			sn.Register(i, func(Message, sim.Time) { delivered++ })
		}
		part := sn.Part(ShardMap{Procs: 17, Shards: shards}.Of(5))
		broadcast := func() { part.Broadcast(5, pl); sh.RunAll() }
		send := func() { part.Send(5, 16, pl); sh.RunAll() }
		for i := 0; i < 8; i++ { // slot pools, heaps, mailboxes and scratch reach their size
			broadcast()
			send()
		}

		const runs = 100 // AllocsPerRun calls once more, to warm up
		delivered = 0
		cross := sh.CrossSent
		if allocs := testing.AllocsPerRun(runs, broadcast); allocs != 1 {
			t.Errorf("S=%d: broadcast to 4 neighbours + checker and its deliveries: %.1f allocs, want 1 (the body)", shards, allocs)
		}
		if delivered != 5*(runs+1) {
			t.Errorf("S=%d: %d deliveries from %d broadcasts, want 5 each", shards, delivered, runs+1)
		}
		if got, want := sh.CrossSent-cross, uint64((shards-1)*2*(runs+1)); got != want {
			t.Errorf("S=%d: %d cross-shard copies, want %d", shards, got, want)
		}
		if allocs := testing.AllocsPerRun(runs, send); allocs != 1 {
			t.Errorf("S=%d: send and its delivery: %.1f allocs, want 1 (the body)", shards, allocs)
		}
	}
}

// TestShardedStatsCountPerCopy: Sent, Bytes and ByKind are bumped once per
// logical send, by the copy count — the totals are those of one increment
// per link-level transmission.
func TestShardedStatsCountPerCopy(t *testing.T) {
	delay := sim.DeltaBounded{Min: 2, Max: 4}
	sh := sim.NewShards(1, 0, 7)
	sn := NewSharded(sh, Grid{Rows: 4, Cols: 4}, delay, ShardMap{Procs: 17, Shards: 1}, 7)
	sn.NeighborScope = true
	sn.AlwaysReach = []int{16}
	part := sn.Part(0)
	if id := part.Broadcast(5, Raw{K: "a", Size: 10}); id == 0 { // 4 neighbours + checker
		t.Fatal("broadcast returned no id")
	}
	part.Broadcast(0, Raw{K: "a", Size: 10}) // corner: 2 neighbours + checker
	part.Send(3, 16, Raw{K: "b", Size: 1})
	part.Broadcast(16, Raw{K: "c", Size: 2}) // outside the topology: everyone else
	sh.RunAll()
	st := sn.TotalStats()
	const copies = 5 + 3 + 1 + 16
	wantBytes := int64(8*(10+headerBytes) + (1 + headerBytes) + 16*(2+headerBytes))
	if st.Sent != copies || st.Delivered != copies || st.Bytes != wantBytes {
		t.Errorf("sent %d delivered %d bytes %d, want %d, %d, %d", st.Sent, st.Delivered, st.Bytes, copies, copies, wantBytes)
	}
	if st.ByKind["a"] != 8 || st.ByKind["b"] != 1 || st.ByKind["c"] != 16 || len(st.ByKind) != 3 {
		t.Errorf("by kind %v, want a:8 b:1 c:16", st.ByKind)
	}
}
