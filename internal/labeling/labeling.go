// Package labeling implements good labelings, the clustering abstraction
// of Section 5 of the paper.
//
// A labeling L : V -> {0..n-1} is good when every vertex v with L(v) > 0
// has a neighbor u with L(u) = L(v)-1. A good labeling induces a
// clustering: each layer-0 vertex roots a cluster, and every other vertex
// can choose a parent one layer below. Two roots are L-adjacent when a
// path u, u_1..u_a, v_b..v_1, v exists with L(u_i)=i and L(v_j)=j; the
// graph G_L on roots with L-adjacency edges is what the algorithms
// iteratively shrink.
//
// This package is verification-side machinery (used by tests and
// experiment harnesses); the distributed computation of labelings lives in
// the protocol packages.
package labeling

import (
	"fmt"

	"repro/internal/graph"
)

// Bottom is the undefined label (the paper's ⊥) used during refinement.
const Bottom = -1

// Labeling assigns a label to every vertex; values are layers >= 0, or
// Bottom during intermediate states.
type Labeling []int

// Validate checks the good-labeling property against g: every label is a
// non-negative layer below n, and every positive-layer vertex has a
// neighbor exactly one layer down.
func (l Labeling) Validate(g *graph.Graph) error {
	if len(l) != g.N() {
		return fmt.Errorf("labeling: %d labels for %d vertices", len(l), g.N())
	}
	for v, lab := range l {
		if lab == Bottom {
			return fmt.Errorf("labeling: vertex %d is unlabeled", v)
		}
		if lab < 0 || lab >= g.N() {
			return fmt.Errorf("labeling: vertex %d has label %d outside [0,%d)", v, lab, g.N())
		}
		if lab == 0 {
			continue
		}
		ok := false
		for _, u := range g.Neighbors(v) {
			if l[u] == lab-1 {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("labeling: vertex %d at layer %d has no layer-%d neighbor", v, lab, lab-1)
		}
	}
	return nil
}

// Roots returns the layer-0 vertices in ascending order.
func (l Labeling) Roots() []int {
	var roots []int
	for v, lab := range l {
		if lab == 0 {
			roots = append(roots, v)
		}
	}
	return roots
}
