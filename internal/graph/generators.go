package graph

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/rng"
)

// Path returns the path graph v0 - v1 - ... - v(n-1).
func Path(n int) *Graph {
	// One neighbor on each side that has one.
	g := sized(n, func(v int) int { return min(v, 1) + min(n-1-v, 1) })
	for i := 0; i+1 < n; i++ {
		g.mustAddEdge(i, i+1)
	}
	g.name = fmt.Sprintf("path-%d", n)
	return g
}

// Cycle returns the cycle graph on n >= 3 vertices (a path for n < 3).
func Cycle(n int) *Graph {
	g := Path(n)
	if n >= 3 {
		g.mustAddEdge(n-1, 0)
	}
	g.name = fmt.Sprintf("cycle-%d", n)
	return g
}

// Clique returns the complete graph K_n, the single-hop network used for
// leader-election substrates.
func Clique(n int) *Graph {
	g := sized(n, func(int) int { return n - 1 })
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.mustAddEdge(i, j)
		}
	}
	g.name = fmt.Sprintf("clique-%d", n)
	return g
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	g := sized(n, func(v int) int {
		if v == 0 {
			return n - 1
		}
		return 1
	})
	for i := 1; i < n; i++ {
		g.mustAddEdge(0, i)
	}
	g.name = fmt.Sprintf("star-%d", n)
	return g
}

// K2k returns the complete bipartite graph K_{2,k} used by the Theorem 2
// lower-bound reduction: vertex 0 is the source s, vertex 1 is t, and
// vertices 2..k+1 are the middle layer {v_1..v_k} adjacent to both.
// s and t are NOT adjacent.
func K2k(k int) *Graph {
	g := sized(k+2, func(v int) int {
		if v < 2 {
			return k
		}
		return 2
	})
	for i := 0; i < k; i++ {
		g.mustAddEdge(0, 2+i)
		g.mustAddEdge(1, 2+i)
	}
	g.name = fmt.Sprintf("k2k-%d", k)
	return g
}

// Grid returns the rows x cols grid graph (diameter rows+cols-2, Delta=4).
func Grid(rows, cols int) *Graph {
	g := sized(rows*cols, func(v int) int {
		r, c := v/cols, v%cols // one neighbor on each side that has one
		return min(r, 1) + min(rows-1-r, 1) + min(c, 1) + min(cols-1-c, 1)
	})
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.mustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.mustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	g.name = fmt.Sprintf("grid-%dx%d", rows, cols)
	return g
}

// Hypercube returns the d-dimensional hypercube (n = 2^d, Delta = d,
// diameter d).
func Hypercube(d int) *Graph {
	n := 1 << uint(d)
	g := sized(n, func(int) int { return d })
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			w := v ^ (1 << uint(b))
			if v < w {
				g.mustAddEdge(v, w)
			}
		}
	}
	g.name = fmt.Sprintf("hypercube-%d", d)
	return g
}

// RandomTree returns a uniformly random labeled tree on n vertices via a
// random Prüfer-like attachment: vertex i (i >= 1) attaches to a uniform
// random earlier vertex. (Random recursive tree; diameter Theta(log n).)
func RandomTree(n int, seed uint64) *Graph {
	g := New(n)
	r := rng.New(seed)
	for i := 1; i < n; i++ {
		g.mustAddEdge(i, r.IntN(i))
	}
	g.name = fmt.Sprintf("rtree-%d", n)
	return g
}

// GNP returns an Erdős–Rényi G(n,p) graph conditioned on connectivity: it
// retries with fresh randomness (derived from seed) until the sample is
// connected, and as a safety net links consecutive isolated components
// after 64 failed attempts.
func GNP(n int, p float64, seed uint64) *Graph {
	for attempt := uint64(0); attempt < 64; attempt++ {
		g := New(n)
		r := rng.NewChild(seed, attempt)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Bernoulli(r, p) {
					g.mustAddEdge(i, j)
				}
			}
		}
		if g.IsConnected() {
			g.name = fmt.Sprintf("gnp-%d-%.2f", n, p)
			return g
		}
	}
	// Deterministic fallback: sample once more and stitch components along
	// a path so experiments never fail on an unlucky seed.
	g := New(n)
	r := rng.NewChild(seed, 64)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Bernoulli(r, p) {
				g.mustAddEdge(i, j)
			}
		}
	}
	comp := components(g)
	for i := 0; i+1 < len(comp); i++ {
		g.mustAddEdge(comp[i][0], comp[i+1][0])
	}
	g.name = fmt.Sprintf("gnp-%d-%.2f", n, p)
	return g
}

// RandomGeometric returns a random geometric (unit-disk) graph: n points
// sampled uniformly in the unit square, with an edge between every pair
// at Euclidean distance <= r — the standard sensor-network model, whose
// local density/long-path mix exercises both cost sources the paper
// identifies. r <= 0 selects 1.5x the connectivity threshold
// sqrt(ln n / (pi n)).
//
// Like GNP, the sample is conditioned on connectivity: up to 64 fresh
// attempts (randomness derived from seed), then a geometric fixup that
// links each remaining component to the rest through its closest pair of
// points, so experiments never fail on an unlucky seed.
func RandomGeometric(n int, r float64, seed uint64) *Graph {
	if r <= 0 {
		r = 1.5 * math.Sqrt(math.Log(math.Max(float64(n), 2))/(math.Pi*float64(n)))
	}
	var g *Graph
	var pts [][2]float64
	for attempt := uint64(0); attempt <= 64; attempt++ {
		g, pts = sampleGeometric(n, r, rng.NewChild(seed, attempt))
		if g.IsConnected() || attempt == 64 {
			break
		}
	}
	if !g.IsConnected() {
		// Fixup: bridge each component to the rest at its closest pair.
		comp := components(g)
		for len(comp) > 1 {
			bu, bv, best := -1, -1, math.Inf(1)
			for _, u := range comp[0] {
				for _, c := range comp[1:] {
					for _, v := range c {
						if d := dist2(pts[u], pts[v]); d < best {
							bu, bv, best = u, v, d
						}
					}
				}
			}
			g.mustAddEdge(bu, bv)
			comp = components(g)
		}
	}
	g.name = fmt.Sprintf("rgg-%d-%.2f", n, r)
	return g
}

// sampleGeometric draws one unit-disk sample.
func sampleGeometric(n int, r float64, rand *rand.Rand) (*Graph, [][2]float64) {
	g := New(n)
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rand.Float64(), rand.Float64()}
	}
	rr := r * r
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist2(pts[i], pts[j]) <= rr {
				g.mustAddEdge(i, j)
			}
		}
	}
	return g, pts
}

func dist2(a, b [2]float64) float64 {
	dx, dy := a[0]-b[0], a[1]-b[1]
	return dx*dx + dy*dy
}

// RandomBoundedDegree returns a connected random graph with maximum degree
// at most maxDeg >= 2: a Hamiltonian path (guaranteeing connectivity and
// degree >= 1) plus random chords that respect the degree bound.
func RandomBoundedDegree(n, maxDeg int, seed uint64) *Graph {
	if maxDeg < 2 {
		maxDeg = 2
	}
	g := Path(n)
	r := rng.New(seed)
	// Try to add about n/2 random chords.
	for t := 0; t < n/2; t++ {
		u, v := r.IntN(n), r.IntN(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if g.Degree(u) >= maxDeg || g.Degree(v) >= maxDeg {
			continue
		}
		g.mustAddEdge(u, v)
	}
	g.name = fmt.Sprintf("bdeg-%d-%d", n, maxDeg)
	return g
}

// Caterpillar returns a spine path of length spine with legs pendant
// vertices attached to each spine vertex — a high-degree, high-diameter
// topology exercising both cost sources the paper identifies
// (synchronization along the spine, contention at the legs).
func Caterpillar(spine, legs int) *Graph {
	n := spine * (1 + legs)
	g := sized(n, func(v int) int {
		if v < spine {
			return legs + min(v, 1) + min(spine-1-v, 1)
		}
		return 1
	})
	for i := 0; i+1 < spine; i++ {
		g.mustAddEdge(i, i+1)
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			g.mustAddEdge(i, next)
			next++
		}
	}
	g.name = fmt.Sprintf("caterpillar-%dx%d", spine, legs)
	return g
}

// Lollipop returns a clique of size k with a path of length tail attached —
// the classic topology mixing a dense contention region with a long
// synchronization region.
func Lollipop(k, tail int) *Graph {
	g := sized(k+tail, func(v int) int {
		switch {
		case v == 0 && tail > 0:
			return k // the clique and the tail's first vertex
		case v < k:
			return k - 1
		case v < k+tail-1:
			return 2
		}
		return 1
	})
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.mustAddEdge(i, j)
		}
	}
	prev := 0
	for i := 0; i < tail; i++ {
		g.mustAddEdge(prev, k+i)
		prev = k + i
	}
	g.name = fmt.Sprintf("lollipop-%d-%d", k, tail)
	return g
}

// components returns the connected components as vertex lists.
func components(g *Graph) [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for v := 0; v < g.N(); v++ {
		if seen[v] {
			continue
		}
		var comp []int
		stack := []int{v}
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, w := range g.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
