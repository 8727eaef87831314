// Package graph provides the undirected-graph type used as the radio
// network topology, together with generators for every topology family in
// the paper's analysis (paths, cliques, stars, K_{2,k}, grids, random
// graphs, random trees, bounded-degree graphs) and the structural metrics
// the model parameters are drawn from (maximum degree Delta, diameter D).
package graph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Graph is a simple undirected graph on vertices 0..N-1 with adjacency
// lists. The zero value is an empty graph; use New to allocate vertices.
//
// Invariant: every adjacency list is sorted ascending at all times.
// AddEdge inserts in sorted position (O(1) amortized for the generators,
// which emit edges in ascending order), so Neighbors never needs a sort
// and seeded simulations are independent of construction order. Consumers
// such as the radio engine's collision resolution rely on this.
type Graph struct {
	adj  [][]int
	m    int
	name string

	// cacheMu guards the lazily computed caches below: the CSR mirror
	// and the diameter. Construction (AddEdge, which invalidates both) is
	// single-threaded by contract; CSR and Diameter may be called
	// concurrently once the graph is built.
	cacheMu sync.Mutex
	csrOff  []int32
	csrAdj  []int32
	diamOK  bool // diam and diamErr hold the current graph's diameter
	diam    int
	diamErr error
}

// New returns a graph with n isolated vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Name returns the generator-assigned human-readable topology name,
// if any ("path-16", "gnp-64-0.10", ...).
func (g *Graph) Name() string { return g.name }

// SetName records a human-readable topology name.
func (g *Graph) SetName(name string) { g.name = name }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with an error (the radio model assumes a simple
// graph). Each endpoint is inserted in sorted position, preserving the
// sorted-adjacency invariant; generators emit edges in ascending order,
// so the common case is a plain append.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.N())
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.m++
	g.csrOff, g.csrAdj = nil, nil // invalidate the CSR mirror
	g.diamOK = false              // and the diameter
	return nil
}

// insertSorted inserts x into the sorted slice s, keeping it sorted.
func insertSorted(s []int, x int) []int {
	if n := len(s); n == 0 || s[n-1] < x {
		return append(s, x) // generators append in ascending order
	}
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// mustAddEdge is used by generators whose construction cannot produce
// invalid edges.
func (g *Graph) mustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return false
	}
	// Binary-search the shorter (sorted) list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	s := g.adj[a]
	i := sort.SearchInts(s, b)
	return i < len(s) && s[i] == b
}

// Neighbors returns the adjacency list of v, sorted ascending. The
// returned slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns Delta, the maximum vertex degree (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	d := 0
	for _, nb := range g.adj {
		if len(nb) > d {
			d = len(nb)
		}
	}
	return d
}

// CSR returns the graph's adjacency in compressed-sparse-row form: the
// neighbors of v are adj[off[v]:off[v+1]], sorted ascending. The two
// slices are built lazily on first call, cached, and shared by every
// caller — they must not be modified. The flat layout is what the radio
// engine's hot collision-resolution loop iterates: one contiguous block
// per vertex instead of n separately allocated lists.
//
// CSR is safe for concurrent use once construction is finished; it must
// not race with AddEdge (which invalidates the cache).
func (g *Graph) CSR() (off, adj []int32) {
	g.cacheMu.Lock()
	defer g.cacheMu.Unlock()
	if g.csrOff == nil {
		n := g.N()
		g.csrOff = make([]int32, n+1)
		g.csrAdj = make([]int32, 0, 2*g.m)
		for v := 0; v < n; v++ {
			g.csrOff[v] = int32(len(g.csrAdj))
			for _, w := range g.adj[v] {
				g.csrAdj = append(g.csrAdj, int32(w))
			}
		}
		g.csrOff[n] = int32(len(g.csrAdj))
	}
	return g.csrOff, g.csrAdj
}

// BFS returns dist where dist[v] is the hop distance from src, or -1 for
// unreachable vertices.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := make([]int, 0, g.N())
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// IsConnected reports whether the graph is connected (true for n <= 1).
func (g *Graph) IsConnected() bool {
	if g.N() <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum BFS distance from v, or an error if the
// graph is disconnected from v.
func (g *Graph) Eccentricity(v int) (int, error) {
	ecc := 0
	for _, d := range g.BFS(v) {
		if d == -1 {
			return 0, errors.New("graph: disconnected")
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, nil
}

// Diameter returns the exact diameter D = max_{u,v} dist(u,v) by running a
// BFS from every vertex. It errors on disconnected graphs. Intended for
// the n <= a-few-thousand graphs used in experiments.
//
// The result is computed on first call and cached like the CSR mirror:
// repeated calls (one per Monte-Carlo trial of a diameter-aware
// algorithm) cost a lock, and AddEdge invalidates the cache. Diameter is
// safe for concurrent use once construction is finished.
func (g *Graph) Diameter() (int, error) {
	g.cacheMu.Lock()
	defer g.cacheMu.Unlock()
	if !g.diamOK {
		g.diam, g.diamErr = g.diameter()
		g.diamOK = true
	}
	return g.diam, g.diamErr
}

// diameter computes the diameter with one BFS per vertex.
func (g *Graph) diameter() (int, error) {
	diam := 0
	for v := 0; v < g.N(); v++ {
		ecc, err := g.Eccentricity(v)
		if err != nil {
			return 0, err
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, nil
}

// TwoHopNeighbors returns the set N2(v): vertices at distance exactly 1 or
// 2 from v, excluding v itself, in ascending order.
func (g *Graph) TwoHopNeighbors(v int) []int {
	seen := make(map[int]bool)
	for _, u := range g.adj[v] {
		seen[u] = true
		for _, w := range g.adj[u] {
			if w != v {
				seen[w] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Validate checks structural invariants (symmetry, no self-loops, no
// duplicates); generators call it in tests.
func (g *Graph) Validate() error {
	count := 0
	for v, nb := range g.adj {
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				return fmt.Errorf("graph: adjacency of %d not sorted at %v", v, nb)
			}
		}
		seen := make(map[int]bool, len(nb))
		for _, w := range nb {
			if w == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if w < 0 || w >= g.N() {
				return fmt.Errorf("graph: neighbor %d of %d out of range", w, v)
			}
			if seen[w] {
				return fmt.Errorf("graph: duplicate edge {%d,%d}", v, w)
			}
			seen[w] = true
			if !g.HasEdge(w, v) {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", v, w)
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count mismatch: m=%d but %d half-edges", g.m, count)
	}
	return nil
}
