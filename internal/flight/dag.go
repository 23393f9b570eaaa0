package flight

import (
	"fmt"
	"sort"
)

// Happens-before reconstruction. A dump's events carry everything the
// strobe protocol puts on the wire — (proc, epoch, seq) identity and
// the sender's logical clock component — so the causal DAG can be
// rebuilt structurally, without trusting engine time:
//
//   - program order: consecutive events of one process (rings are in
//     program order; the dump merge preserves it per process);
//   - message order: the Sense event that emitted strobe (p, epoch,
//     seq) precedes every Recv/Apply of that strobe at any process.
//
// Validate then checks the clock rules the protocol guarantees (SVC1/
// SSC1: own component strictly increasing per epoch; checker applies
// in increasing Seq per sender epoch) against the reconstructed DAG,
// and that the DAG is acyclic — engine time may not order concurrent
// events, but it must never invert a causal edge.

// DAG is the happens-before graph over a dump's events.
type DAG struct {
	Events []Event // node i is Events[i]
	// Edges[i] lists the direct successors of node i (program-order and
	// message edges), each target index strictly ordering after i.
	Edges [][]int
}

// senseKey identifies the sense event behind a strobe on the wire.
type senseKey struct {
	proc, epoch int
	seq         uint64
}

// BuildDAG reconstructs the happens-before DAG of a dump.
func BuildDAG(d *Dump) *DAG {
	g := &DAG{Events: d.Events, Edges: make([][]int, len(d.Events))}

	// Program order: chain each process's events in dump order.
	last := make(map[int]int, len(d.Procs))
	for i, ev := range d.Events {
		if j, ok := last[ev.Proc]; ok {
			g.Edges[j] = append(g.Edges[j], i)
		}
		last[ev.Proc] = i
	}

	// Message order: Sense(p, epoch, seq) → every Recv/Apply of it.
	senses := make(map[senseKey]int, len(d.Events))
	for i, ev := range d.Events {
		if ev.Kind == Sense.String() {
			senses[senseKey{ev.Proc, ev.Epoch, ev.Seq}] = i
		}
	}
	for i, ev := range d.Events {
		if ev.Kind != Recv.String() && ev.Kind != Apply.String() {
			continue
		}
		if ev.Peer < 0 || ev.Seq == 0 {
			continue
		}
		if j, ok := senses[senseKey{ev.Peer, ev.Epoch, ev.Seq}]; ok && j != i {
			g.Edges[j] = append(g.Edges[j], i)
		}
	}
	return g
}

// Validate checks the DAG and the dump's stamps against the protocol's
// clock rules. It returns the violations found (empty = consistent):
//
//  1. acyclicity — a cycle means recorded time inverted a causal edge;
//  2. per (proc, epoch), Sense events carry strictly increasing Seq
//     and, when either of two consecutive ones is stamped (Clock ≠ 0),
//     strictly increasing Clock (rules SVC1/SSC1: the emitter ticks its
//     own component at every relevant event; a physical report carries
//     no logical clock, so its Clock is 0, as rule 4 reads it);
//  3. per (checker proc, sender, sender epoch), Apply events carry
//     strictly increasing Seq (the checker's staleness discipline);
//  4. a Recv/Apply whose PeerClock disagrees with the matched Sense's
//     Clock — the wire stamp must be the stamp the sender recorded.
func (g *DAG) Validate() []string {
	var issues []string

	// 1: Kahn's algorithm; leftovers are on a cycle.
	indeg := make([]int, len(g.Events))
	for _, succ := range g.Edges {
		for _, j := range succ {
			indeg[j]++
		}
	}
	queue := make([]int, 0, len(g.Events))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, j := range g.Edges[i] {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if seen != len(g.Events) {
		issues = append(issues, fmt.Sprintf("cycle: %d of %d events are causally self-dependent", len(g.Events)-seen, len(g.Events)))
	}

	// 2: sender-side monotonicity per (proc, epoch).
	type pe struct{ proc, epoch int }
	lastSense := make(map[pe]Event)
	for _, ev := range g.Events {
		if ev.Kind != Sense.String() {
			continue
		}
		k := pe{ev.Proc, ev.Epoch}
		if prev, ok := lastSense[k]; ok {
			if ev.Seq <= prev.Seq {
				issues = append(issues, fmt.Sprintf("p%d epoch %d: sense seq %d after %d (must strictly increase)", ev.Proc, ev.Epoch, ev.Seq, prev.Seq))
			}
			if (ev.Clock != 0 || prev.Clock != 0) && ev.Clock <= prev.Clock {
				issues = append(issues, fmt.Sprintf("p%d epoch %d: sense clock %d after %d (own component must tick)", ev.Proc, ev.Epoch, ev.Clock, prev.Clock))
			}
		}
		lastSense[k] = ev
	}

	// 3: checker apply order per (proc, peer, epoch).
	type ppe struct{ proc, peer, epoch int }
	lastApply := make(map[ppe]uint64)
	for _, ev := range g.Events {
		if ev.Kind != Apply.String() || ev.Peer < 0 {
			continue
		}
		k := ppe{ev.Proc, ev.Peer, ev.Epoch}
		if prev, ok := lastApply[k]; ok && ev.Seq <= prev {
			issues = append(issues, fmt.Sprintf("p%d: applied strobe (p%d epoch %d seq %d) after seq %d (staleness discipline violated)", ev.Proc, ev.Peer, ev.Epoch, ev.Seq, prev))
		}
		lastApply[k] = ev.Seq
	}

	// 4: wire stamp vs sender record.
	senses := make(map[senseKey]Event)
	for _, ev := range g.Events {
		if ev.Kind == Sense.String() {
			senses[senseKey{ev.Proc, ev.Epoch, ev.Seq}] = ev
		}
	}
	for _, ev := range g.Events {
		if (ev.Kind != Recv.String() && ev.Kind != Apply.String()) || ev.Peer < 0 || ev.PeerClock == 0 {
			continue
		}
		if s, ok := senses[senseKey{ev.Peer, ev.Epoch, ev.Seq}]; ok && s.Clock != 0 && s.Clock != ev.PeerClock {
			issues = append(issues, fmt.Sprintf("p%d %s of (p%d epoch %d seq %d): wire clock %d != sender's recorded %d", ev.Proc, ev.Kind, ev.Peer, ev.Epoch, ev.Seq, ev.PeerClock, s.Clock))
		}
	}
	return issues
}

// CriticalPath walks back from the dump's last Detect event through the
// causal chain that produced it: the Apply that flipped the predicate,
// the Recv that delivered the strobe, the Sense that emitted it — and
// then, recursively, the latest strobe the sender had merged before
// that sense (its freshest causal input). The returned indices are in
// causal order (earliest first); nil when the dump holds no detection.
func (g *DAG) CriticalPath() []int {
	detect := -1
	for i := len(g.Events) - 1; i >= 0; i-- {
		if g.Events[i].Kind == Detect.String() {
			detect = i
			break
		}
	}
	if detect < 0 {
		return nil
	}

	// Index sense events and per-process event lists once.
	senses := make(map[senseKey]int, len(g.Events))
	byProc := make(map[int][]int)
	for i, ev := range g.Events {
		if ev.Kind == Sense.String() {
			senses[senseKey{ev.Proc, ev.Epoch, ev.Seq}] = i
		}
		byProc[ev.Proc] = append(byProc[ev.Proc], i)
	}
	// prevAt returns the latest event of proc with kind, strictly before
	// dump index i.
	prevAt := func(proc int, i int, kind string) int {
		evs := byProc[proc]
		// Binary search for the position of i in proc's event list.
		pos := sort.SearchInts(evs, i)
		for j := pos - 1; j >= 0; j-- {
			if g.Events[evs[j]].Kind == kind {
				return evs[j]
			}
		}
		return -1
	}

	path := []int{detect}
	visited := map[int]bool{detect: true}

	// The Apply that flipped the predicate is the checker's nearest
	// preceding apply (the checker records Apply, then Detect).
	cur := prevAt(g.Events[detect].Proc, detect, Apply.String())
	for cur >= 0 && !visited[cur] {
		visited[cur] = true
		path = append(path, cur)
		ev := g.Events[cur]
		switch ev.Kind {
		case Apply.String():
			// The Recv that carried this strobe to the checker, if the
			// transport's record made it into the dump window.
			if r := matchRecv(g, byProc[ev.Proc], cur, ev); r >= 0 && !visited[r] {
				visited[r] = true
				path = append(path, r)
			}
			cur = lookupSense(senses, ev)
		case Sense.String():
			// The sender's freshest causal input before this sense: the
			// latest strobe it had received and merged.
			if r := prevAt(ev.Proc, cur, Recv.String()); r >= 0 {
				cur = lookupSense(senses, g.Events[r])
				if cur >= 0 && !visited[cur] {
					visited[r] = true
					path = append(path, r)
				}
			} else {
				cur = -1
			}
		default:
			cur = -1
		}
	}

	// Collected newest-first; reverse into causal order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// matchRecv finds the Recv at the apply's process carrying the same
// strobe identity, at or before the apply.
func matchRecv(g *DAG, procEvents []int, applyIdx int, apply Event) int {
	pos := sort.SearchInts(procEvents, applyIdx)
	for j := pos - 1; j >= 0; j-- {
		ev := g.Events[procEvents[j]]
		if ev.Kind == Recv.String() && ev.Peer == apply.Peer && ev.Epoch == apply.Epoch && ev.Seq == apply.Seq {
			return procEvents[j]
		}
	}
	return -1
}

// lookupSense resolves a Recv/Apply event to its originating Sense.
func lookupSense(senses map[senseKey]int, ev Event) int {
	if ev.Peer < 0 || ev.Seq == 0 {
		return -1
	}
	if i, ok := senses[senseKey{ev.Peer, ev.Epoch, ev.Seq}]; ok {
		return i
	}
	return -1
}
