package flight

import (
	"testing"
)

// sampleDump builds a minimal three-process execution: sensor p0
// senses twice, its strobes reach checker p2 (via one relay hop
// through p1 for seq 1), and the second apply flips the predicate.
func sampleDump() *Dump {
	return &Dump{
		Version: DumpVersion, Trigger: "detect", At: 40, TimeBase: "virtual",
		N: 3, Procs: []int{0, 1, 2},
		Events: []Event{
			{Kind: "sense", Proc: 0, At: 10, Peer: -1, Seq: 1, Clock: 1, Attr: "x", Value: 1},
			{Kind: "recv", Proc: 1, At: 15, Peer: 0, Seq: 1, PeerClock: 1},
			{Kind: "recv", Proc: 2, At: 20, Peer: 0, Seq: 1, PeerClock: 1},
			{Kind: "apply", Proc: 2, At: 20, Peer: 0, Seq: 1, PeerClock: 1},
			{Kind: "sense", Proc: 0, At: 25, Peer: -1, Seq: 2, Clock: 2, Attr: "x", Value: 5},
			{Kind: "recv", Proc: 2, At: 30, Peer: 0, Seq: 2, PeerClock: 2},
			{Kind: "apply", Proc: 2, At: 30, Peer: 0, Seq: 2, PeerClock: 2},
			{Kind: "detect", Proc: 2, At: 30, Peer: -1, Value: 1},
		},
	}
}

func TestBuildDAGEdges(t *testing.T) {
	g := BuildDAG(sampleDump())
	has := func(from, to int) bool {
		for _, j := range g.Edges[from] {
			if j == to {
				return true
			}
		}
		return false
	}
	// Message edges: sense seq 1 (node 0) → recvs at p1 and p2 and the
	// apply; sense seq 2 (node 4) → recv/apply at p2.
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {4, 5}, {4, 6}} {
		if !has(e[0], e[1]) {
			t.Errorf("missing message edge %d->%d", e[0], e[1])
		}
	}
	// Program order: p2's recv → apply → ... → detect chain.
	for _, e := range [][2]int{{2, 3}, {3, 5}, {5, 6}, {6, 7}, {0, 4}} {
		if !has(e[0], e[1]) {
			t.Errorf("missing program-order edge %d->%d", e[0], e[1])
		}
	}
}

func TestValidateCleanDump(t *testing.T) {
	if issues := BuildDAG(sampleDump()).Validate(); len(issues) != 0 {
		t.Fatalf("clean dump reported issues: %v", issues)
	}
}

func TestValidateFlagsViolations(t *testing.T) {
	cases := map[string]func(*Dump){
		"sense seq regression": func(d *Dump) { d.Events[4].Seq = 1 },
		"sense clock stuck":    func(d *Dump) { d.Events[4].Clock = 1 },
		"apply out of order": func(d *Dump) {
			d.Events[3].Seq, d.Events[3].PeerClock = 2, 2
			d.Events[6].Seq, d.Events[6].PeerClock = 1, 1
		},
		"wire clock mismatch": func(d *Dump) { d.Events[5].PeerClock = 7 },
	}
	for name, mutate := range cases {
		d := sampleDump()
		mutate(d)
		if issues := BuildDAG(d).Validate(); len(issues) == 0 {
			t.Errorf("%s: no issue reported", name)
		}
	}
}

// TestValidateUnstampedSenses: a physical report carries no logical clock,
// so a physical run's senses all have Clock 0. Rule 2 once demanded a
// strictly increasing Clock of them, and every physical dump read
// INCONSISTENT; it now checks the clock only when either side is stamped,
// and the seq check stays.
func TestValidateUnstampedSenses(t *testing.T) {
	d := &Dump{Version: DumpVersion, Trigger: "fault:crash(1)", N: 3, Procs: []int{0, 1, 2},
		Events: []Event{
			{Kind: "sense", Proc: 0, At: 10, Peer: -1, Seq: 1},
			{Kind: "sense", Proc: 1, At: 11, Peer: -1, Seq: 1},
			{Kind: "recv", Proc: 2, At: 12, Peer: 0, Seq: 1},
			{Kind: "sense", Proc: 0, At: 20, Peer: -1, Seq: 2},
			{Kind: "sense", Proc: 1, At: 21, Peer: -1, Seq: 2},
			{Kind: "crash", Proc: 1, At: 22, Peer: -1, Epoch: 0},
			{Kind: "sense", Proc: 1, At: 30, Peer: -1, Epoch: 1, Seq: 1},
		}}
	if issues := BuildDAG(d).Validate(); len(issues) != 0 {
		t.Fatalf("unstamped senses reported issues: %v", issues)
	}
	for name, mutate := range map[string]func(*Dump){
		"seq regression":      func(d *Dump) { d.Events[3].Seq = 1 },
		"stamp then none":     func(d *Dump) { d.Events[0].Clock = 4 },
		"stamped clock stuck": func(d *Dump) { d.Events[1].Clock, d.Events[4].Clock = 5, 5 },
	} {
		bad := *d
		bad.Events = append([]Event(nil), d.Events...)
		mutate(&bad)
		if issues := BuildDAG(&bad).Validate(); len(issues) == 0 {
			t.Errorf("%s: no issue reported", name)
		}
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	d := sampleDump()
	// Move the first sense after its own delivery in recorded order:
	// p0's program order then runs recv-matching sense seq 1 backwards.
	d.Events[0], d.Events[4] = d.Events[4], d.Events[0]
	// Now sense seq 2 (at index 0) precedes sense seq 1 (index 4) in
	// p0's program order while seq 1's message edge targets events that
	// precede seq 2's — fabricate a receive at p0 closing the loop.
	d.Events = append(d.Events, Event{Kind: "recv", Proc: 0, At: 5, Peer: 0, Seq: 1, PeerClock: 1})
	g := BuildDAG(d)
	// The mutation may or may not produce a literal cycle depending on
	// edge direction; assert Validate flags *something* (seq regression
	// at minimum) rather than calling the mangled dump consistent.
	if issues := g.Validate(); len(issues) == 0 {
		t.Fatal("mangled dump validated clean")
	}
}

func TestCriticalPath(t *testing.T) {
	g := BuildDAG(sampleDump())
	path := g.CriticalPath()
	if len(path) == 0 {
		t.Fatal("no critical path for a dump with a detect")
	}
	if last := g.Events[path[len(path)-1]]; last.Kind != "detect" {
		t.Fatalf("path must end at the detect, ends at %s", last.Kind)
	}
	if first := g.Events[path[0]]; first.Kind != "sense" {
		t.Fatalf("path must start at a sense, starts at %s", first.Kind)
	}
	// The flipping chain sense#2 → recv → apply → detect must be there.
	want := map[int]bool{4: true, 5: true, 6: true, 7: true}
	for _, i := range path {
		delete(want, i)
	}
	if len(want) != 0 {
		t.Fatalf("path %v misses flipping-chain nodes %v", path, want)
	}
	// Causal order: indices of the chain appear in order.
	pos := map[int]int{}
	for k, i := range path {
		pos[i] = k
	}
	if !(pos[4] < pos[6] && pos[6] < pos[7]) {
		t.Fatalf("path %v is not in causal order", path)
	}
}

func TestCriticalPathNoDetect(t *testing.T) {
	d := sampleDump()
	d.Events = d.Events[:7] // drop the detect
	if path := BuildDAG(d).CriticalPath(); path != nil {
		t.Fatalf("path without detect: %v", path)
	}
}
