package network

import (
	"slices"
	"testing"
	"testing/quick"

	"pervasive/internal/stats"
)

func checkSymmetric(t *testing.T, topo Topology) {
	t.Helper()
	n := topo.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if topo.Connected(i, j) != topo.Connected(j, i) {
				t.Fatalf("%s asymmetric at (%d,%d)", Describe(topo), i, j)
			}
			if i == j && topo.Connected(i, j) {
				t.Fatalf("%s has self-loop at %d", Describe(topo), i)
			}
		}
	}
}

func checkNeighborsMatchConnected(t *testing.T, topo Topology) {
	t.Helper()
	n := topo.N()
	for i := 0; i < n; i++ {
		nbrs := make(map[int]bool)
		for _, j := range Neighbors(topo, i) {
			nbrs[j] = true
		}
		for j := 0; j < n; j++ {
			if topo.Connected(i, j) != nbrs[j] {
				t.Fatalf("%s: Neighbors/Connected disagree at (%d,%d)",
					Describe(topo), i, j)
			}
		}
	}
}

func TestFullMesh(t *testing.T) {
	m := FullMesh{Nodes: 6}
	checkSymmetric(t, m)
	checkNeighborsMatchConnected(t, m)
	if len(Neighbors(m, 0)) != 5 {
		t.Fatal("full mesh degree wrong")
	}
	if !IsConnectedGraph(m) {
		t.Fatal("full mesh not connected")
	}
}

func TestRing(t *testing.T) {
	r := Ring{Nodes: 5}
	checkSymmetric(t, r)
	checkNeighborsMatchConnected(t, r)
	for i := 0; i < 5; i++ {
		if len(Neighbors(r, i)) != 2 {
			t.Fatalf("ring degree at %d: %v", i, Neighbors(r, i))
		}
	}
	if !IsConnectedGraph(r) {
		t.Fatal("ring not connected")
	}
	two := Ring{Nodes: 2}
	checkSymmetric(t, two)
	checkNeighborsMatchConnected(t, two)
	if !two.Connected(0, 1) {
		t.Fatal("2-ring should connect its nodes")
	}
}

func TestGrid(t *testing.T) {
	g := Grid{Rows: 3, Cols: 4}
	checkSymmetric(t, g)
	checkNeighborsMatchConnected(t, g)
	if g.N() != 12 {
		t.Fatal("grid size")
	}
	// Corner has 2 neighbours, interior 4.
	if len(Neighbors(g, 0)) != 2 {
		t.Fatalf("corner neighbours %v", Neighbors(g, 0))
	}
	if len(Neighbors(g, 5)) != 4 {
		t.Fatalf("interior neighbours %v", Neighbors(g, 5))
	}
	if !IsConnectedGraph(g) {
		t.Fatal("grid not connected")
	}
}

func TestMutable(t *testing.T) {
	m := NewMutable(4)
	if IsConnectedGraph(m) {
		t.Fatal("isolated nodes reported connected")
	}
	m.AddLink(0, 1)
	m.AddLink(1, 2)
	m.AddLink(2, 3)
	checkSymmetric(t, m)
	checkNeighborsMatchConnected(t, m)
	if !IsConnectedGraph(m) {
		t.Fatal("path graph should be connected")
	}
	m.AddLink(2, 2) // self-loop ignored
	if m.Connected(2, 2) {
		t.Fatal("self-loop accepted")
	}
	m.AddLink(-1, 9) // out of range ignored
}

func TestRandomGeometric(t *testing.T) {
	r := stats.NewRNG(1)
	// A generous radius almost surely connects 30 nodes in a unit square.
	m := RandomGeometric(r, 30, 0.6)
	checkSymmetric(t, m)
	checkNeighborsMatchConnected(t, m)
	if !IsConnectedGraph(m) {
		t.Fatal("generous-radius RGG should be connected")
	}
	// Radius 0 yields no links.
	m0 := RandomGeometric(r, 10, 0)
	for i := 0; i < 10; i++ {
		if len(Neighbors(m0, i)) != 0 {
			t.Fatal("zero-radius RGG has links")
		}
	}
}

func TestBFSTree(t *testing.T) {
	g := Grid{Rows: 2, Cols: 3}
	parent := BFSTree(g, 0)
	if parent[0] != 0 {
		t.Fatal("root parent should be itself")
	}
	for i := 1; i < g.N(); i++ {
		if parent[i] == -1 {
			t.Fatalf("node %d unreachable in connected grid", i)
		}
		if !g.Connected(i, parent[i]) {
			t.Fatalf("parent edge %d-%d not in graph", i, parent[i])
		}
	}
	// Unreachable nodes stay -1.
	m := NewMutable(3)
	m.AddLink(0, 1)
	p := BFSTree(m, 0)
	if p[2] != -1 {
		t.Fatal("isolated node got a parent")
	}
}

func TestBFSTreeBadRoot(t *testing.T) {
	p := BFSTree(FullMesh{Nodes: 3}, 7)
	for _, v := range p {
		if v != -1 {
			t.Fatal("bad root should leave all parents -1")
		}
	}
}

// Property: in any RGG, node degrees are symmetric (u in N(v) ⟺ v in N(u)).
func TestRGGSymmetryProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, radRaw uint8) bool {
		n := int(nRaw%20) + 2
		radius := float64(radRaw) / 255.0
		m := RandomGeometric(stats.NewRNG(seed), n, radius)
		for i := 0; i < n; i++ {
			for _, j := range Neighbors(m, i) {
				if !m.Connected(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendNeighborsMatchesNeighbors: AppendNeighbors into a dirty,
// non-empty buffer leaves the prefix alone and appends exactly the processes
// Connected reports adjacent, each once, in the order the fresh-slice form
// Neighbors returns them — for every topology, at the degenerate sizes and
// at each kind of grid position, and on a Mutable with links added.
func TestAppendNeighborsMatchesNeighbors(t *testing.T) {
	edited := NewMutable(6)
	for _, l := range [][2]int{{0, 3}, {1, 2}, {1, 4}, {2, 5}, {3, 4}, {4, 5}, {0, 5}, {2, 3}} {
		edited.AddLink(l[0], l[1])
	}
	topos := []Topology{
		FullMesh{Nodes: 1}, FullMesh{Nodes: 6},
		Ring{Nodes: 1}, Ring{Nodes: 2}, Ring{Nodes: 5},
		Grid{Rows: 3, Cols: 4}, // corners, edges and the interior nodes 5 and 6
		Grid{Rows: 1, Cols: 1}, Grid{Rows: 1, Cols: 3},
		NewMutable(3), edited,
	}
	for _, topo := range topos {
		for i := 0; i < topo.N(); i++ {
			buf := append(make([]int, 0, 16), -7, -8)
			buf = append(buf, 99, 98, 97)[:2] // stale values past the prefix
			got := topo.AppendNeighbors(buf, i)
			if len(got) < 2 || got[0] != -7 || got[1] != -8 {
				t.Fatalf("%s node %d: AppendNeighbors returned %v, prefix [-7 -8] disturbed", Describe(topo), i, got)
			}
			listed := make(map[int]int)
			for _, j := range got[2:] {
				listed[j]++
			}
			for j := -1; j <= topo.N(); j++ {
				want := 0
				if topo.Connected(i, j) {
					want = 1
				}
				if listed[j] != want {
					t.Fatalf("%s node %d: appended %v lists %d %d times, Connected says %d",
						Describe(topo), i, got[2:], j, listed[j], want)
				}
			}
			if len(listed) != len(got)-2 {
				t.Fatalf("%s node %d: appended %v repeats a neighbour", Describe(topo), i, got[2:])
			}
			if fresh := Neighbors(topo, i); !slices.Equal(fresh, got[2:]) {
				t.Fatalf("%s node %d: appended %v, Neighbors %v", Describe(topo), i, got[2:], fresh)
			}
		}
	}
}
