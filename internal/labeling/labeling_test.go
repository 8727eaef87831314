package labeling

import (
	"testing"

	"repro/internal/graph"
)

// The all-zero labeling, every vertex a singleton cluster root, is the
// good labeling every algorithm starts from.
func TestAllZeroIsGood(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(5), graph.Clique(4), graph.Star(6)} {
		l := make(Labeling, g.N())
		if err := l.Validate(g); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
		if len(l.Roots()) != g.N() {
			t.Errorf("%s: all-zero labeling should have n roots", g.Name())
		}
	}
}

func TestValidateRejectsBadLabelings(t *testing.T) {
	g := graph.Path(4)
	cases := []struct {
		name string
		l    Labeling
	}{
		{"wrong length", Labeling{0, 1}},
		{"bottom", Labeling{0, Bottom, 0, 0}},
		{"negative", Labeling{0, -2, 0, 0}},
		{"too large", Labeling{0, 4, 0, 0}},
		{"gap", Labeling{0, 2, 0, 0}},        // vertex 1 at layer 2, no layer-1 neighbor
		{"orphan", Labeling{1, 1, 1, 1}},     // no layer-0 at all
		{"far orphan", Labeling{0, 1, 3, 0}}, // vertex 2 at 3, neighbors at 1 and 0
	}
	for _, c := range cases {
		if err := c.l.Validate(g); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestValidateAcceptsBFSLayers(t *testing.T) {
	// BFS distance from any source is always a good labeling.
	gs := []*graph.Graph{graph.Path(9), graph.Grid(4, 5), graph.GNP(30, 0.2, 1), graph.RandomTree(25, 2)}
	for _, g := range gs {
		dist := g.BFS(0)
		l := make(Labeling, g.N())
		copy(l, dist)
		if err := l.Validate(g); err != nil {
			t.Errorf("%s: BFS labeling rejected: %v", g.Name(), err)
		}
		if got := len(l.Roots()); got != 1 {
			t.Errorf("%s: BFS labeling has %d roots", g.Name(), got)
		}
	}
}

func TestRoots(t *testing.T) {
	g := graph.Path(5)
	l := Labeling{0, 1, 2, 1, 0}
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
	roots := l.Roots()
	if len(roots) != 2 || roots[0] != 0 || roots[1] != 4 {
		t.Errorf("Roots = %v", roots)
	}
}
