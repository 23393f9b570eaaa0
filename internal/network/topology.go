// Package network implements the network plane ⟨P, L⟩ of the paper's
// system model (Section 2.1): the sensor/actuator processes P and the
// logical overlay L over which they exchange asynchronous messages.
//
// The overlay is a (possibly dynamically changing) graph; message
// transmission uses the delay models of internal/sim. A broadcast is either
// direct (one logical hop to every process, the abstraction used by the
// strobe protocols' System-wide_Broadcast) or flooding over the overlay
// (hop-by-hop with per-hop delays), and the transport counts messages and
// bytes for the overhead experiments.
package network

import (
	"slices"

	"pervasive/internal/stats"
)

// Topology describes the overlay L. Implementations must be symmetric:
// j is among i's neighbours exactly when i is among j's.
type Topology interface {
	// N returns the number of processes.
	N() int
	// AppendNeighbors appends the processes adjacent to i to dst, in a
	// deterministic order, and returns the extended slice: callers that ask
	// once per message keep a scratch buffer.
	AppendNeighbors(dst []int, i int) []int
}

// Neighbors returns the processes adjacent to i in a fresh slice.
func Neighbors(t Topology, i int) []int { return t.AppendNeighbors(nil, i) }

// FullMesh connects every pair of processes.
type FullMesh struct{ Nodes int }

// N implements Topology.
func (m FullMesh) N() int { return m.Nodes }

// AppendNeighbors implements Topology.
//
//lint:allow hotpath(appends into the caller's scratch, which grows to the node degree once and is reused by every later send)
func (m FullMesh) AppendNeighbors(dst []int, i int) []int {
	dst = slices.Grow(dst, m.Nodes-1)
	for j := 0; j < m.Nodes; j++ {
		if j != i {
			dst = append(dst, j)
		}
	}
	return dst
}

// Ring connects process i to (i±1) mod N.
type Ring struct{ Nodes int }

// N implements Topology.
func (r Ring) N() int { return r.Nodes }

// AppendNeighbors implements Topology.
//
//lint:allow hotpath(appends into the caller's scratch, which grows to the node degree once and is reused by every later send)
func (r Ring) AppendNeighbors(dst []int, i int) []int {
	if r.Nodes < 2 {
		return dst
	}
	if r.Nodes == 2 {
		return append(dst, 1-i)
	}
	return append(dst, (i+r.Nodes-1)%r.Nodes, (i+1)%r.Nodes)
}

// Grid arranges processes row-major in Rows×Cols with 4-neighbour links.
type Grid struct{ Rows, Cols int }

// N implements Topology.
func (g Grid) N() int { return g.Rows * g.Cols }

// AppendNeighbors implements Topology.
//
//lint:allow hotpath(appends into the caller's scratch, which grows to the node degree once and is reused by every later send)
func (g Grid) AppendNeighbors(dst []int, i int) []int {
	r, c := i/g.Cols, i%g.Cols
	if r > 0 {
		dst = append(dst, i-g.Cols)
	}
	if r < g.Rows-1 {
		dst = append(dst, i+g.Cols)
	}
	if c > 0 {
		dst = append(dst, i-1)
	}
	if c < g.Cols-1 {
		dst = append(dst, i+1)
	}
	return dst
}

// Mutable is an adjacency-set topology supporting link churn, modelling
// the paper's "dynamically changing graph" L.
type Mutable struct {
	n   int
	adj []map[int]bool
}

// NewMutable creates a mutable topology with n isolated processes.
func NewMutable(n int) *Mutable {
	m := &Mutable{n: n, adj: make([]map[int]bool, n)}
	for i := range m.adj {
		m.adj[i] = make(map[int]bool)
	}
	return m
}

// N implements Topology.
func (m *Mutable) N() int { return m.n }

// AddLink inserts the undirected link i—j.
func (m *Mutable) AddLink(i, j int) {
	if i == j || !inRange(m.n, i, j) {
		return
	}
	m.adj[i][j] = true
	m.adj[j][i] = true
}

// AppendNeighbors implements Topology.
//
//lint:allow hotpath(appends into the caller's scratch, which grows to the node degree once and is reused by every later send)
func (m *Mutable) AppendNeighbors(dst []int, i int) []int {
	dst = slices.Grow(dst, len(m.adj[i]))
	for j := 0; j < m.n; j++ { // deterministic order
		if m.adj[i][j] {
			dst = append(dst, j)
		}
	}
	return dst
}

// RandomGeometric places n processes uniformly in the unit square and
// links pairs within the given radius — the standard wireless sensornet
// connectivity model. The result is returned as a Mutable so callers can
// apply churn.
func RandomGeometric(r *stats.RNG, n int, radius float64) *Mutable {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	m := NewMutable(n)
	rr := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= rr {
				m.AddLink(i, j)
			}
		}
	}
	return m
}

// IsConnectedGraph reports whether the overlay is a single connected
// component (needed for flooding to reach everyone).
func IsConnectedGraph(t Topology) bool {
	n := t.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range Neighbors(t, i) {
			if !seen[j] {
				seen[j] = true
				count++
				stack = append(stack, j)
			}
		}
	}
	return count == n
}

// BFSTree returns, for each process, its parent in a breadth-first
// spanning tree rooted at root (parent[root] = root; unreachable = -1).
// TPSN-style sync protocols use this tree.
func BFSTree(t Topology, root int) []int {
	n := t.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	if root < 0 || root >= n {
		return parent
	}
	parent[root] = root
	queue := []int{root}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, j := range Neighbors(t, i) {
			if parent[j] == -1 {
				parent[j] = i
				queue = append(queue, j)
			}
		}
	}
	return parent
}

func inRange(n, i, j int) bool { return i >= 0 && i < n && j >= 0 && j < n }
