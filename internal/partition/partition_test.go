package partition

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/radio"
)

// partition runs Partition(beta) on g, one Proc per vertex, and returns
// every device's result.
func partition(t *testing.T, g *graph.Graph, p Params, seed uint64) []Result {
	t.Helper()
	_, devs, err := radio.Run(radio.Config{Graph: g, Model: p.SR.Model, Seed: seed},
		func(_ int, out *Result) radio.Proc { return Proc(p, 1, out) })
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	return devs
}

func TestEveryoneClustered(t *testing.T) {
	gs := []*graph.Graph{graph.Path(24), graph.Grid(4, 6), graph.GNP(30, 0.15, 1)}
	for _, g := range gs {
		p, err := NewParams(radio.NoCD, g.N(), g.MaxDegree(), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for v, d := range partition(t, g, p, 3) {
			if d.Cluster < 0 {
				t.Errorf("%s: vertex %d unclustered", g.Name(), v)
			}
		}
	}
}

func TestInducedLabelingGood(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := graph.Grid(5, 5)
		p, err := NewParams(radio.CD, g.N(), g.MaxDegree(), 0.4)
		if err != nil {
			t.Fatal(err)
		}
		devs := partition(t, g, p, seed)
		labels := make(labeling.Labeling, len(devs))
		for v, d := range devs {
			labels[v] = d.Layer
		}
		if err := labels.Validate(g); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		// Layer-0 vertices are exactly the cluster centers.
		for v, d := range devs {
			if (d.Layer == 0) != (d.Cluster == v) {
				t.Errorf("seed %d: vertex %d layer %d cluster %d inconsistent",
					seed, v, d.Layer, d.Cluster)
			}
		}
	}
}

func TestClustersAreConnected(t *testing.T) {
	// Each cluster must induce a connected subgraph (recruitment grows
	// hop by hop from the center).
	g := graph.GNP(28, 0.15, 5)
	p, err := NewParams(radio.Local, g.N(), g.MaxDegree(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	devs := partition(t, g, p, 7)
	for _, c := range Clusters(devs) {
		// BFS within the cluster from the center.
		members := make(map[int]bool)
		for v, d := range devs {
			if d.Cluster == c {
				members[v] = true
			}
		}
		visited := map[int]bool{c: true}
		queue := []int{c}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if members[u] && !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
		if len(visited) != len(members) {
			t.Errorf("cluster %d disconnected: %d of %d reachable", c, len(visited), len(members))
		}
	}
}

func TestCutProbabilityScalesWithBeta(t *testing.T) {
	// Lemma 14(1): P[edge cut] <= 2*beta. Average over seeds on a grid;
	// allow generous slack for the SR-communication granularity.
	g := graph.Grid(6, 6)
	cutFraction := func(beta float64) float64 {
		total, cut := 0, 0
		for seed := uint64(0); seed < 6; seed++ {
			p, err := NewParams(radio.Local, g.N(), g.MaxDegree(), beta)
			if err != nil {
				t.Fatal(err)
			}
			cut += CutEdges(g, partition(t, g, p, seed))
			total += g.M()
		}
		return float64(cut) / float64(total)
	}
	small := cutFraction(0.15)
	large := cutFraction(0.8)
	if small >= large {
		t.Errorf("cut fraction did not grow with beta: beta=0.15 -> %v, beta=0.8 -> %v", small, large)
	}
	if small > 2*0.15+0.25 {
		t.Errorf("beta=0.15 cut fraction %v far above the 2*beta bound", small)
	}
}

func TestDiameterShrinks(t *testing.T) {
	// Lemma 15 shape: the cluster graph of a long path is much shorter
	// than the path.
	g := graph.Path(64)
	p, err := NewParams(radio.Local, g.N(), g.MaxDegree(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	shrunk := false
	for seed := uint64(0); seed < 3; seed++ {
		cg, _ := ClusterGraph(g, partition(t, g, p, seed))
		d0, _ := g.Diameter()
		d1 := 0
		if cg.N() > 0 {
			var derr error
			d1, derr = cg.Diameter()
			if derr != nil {
				t.Fatalf("cluster graph disconnected: %v", derr)
			}
		}
		if d1 < d0/2 {
			shrunk = true
		}
	}
	if !shrunk {
		t.Error("cluster-graph diameter never shrank below half the path diameter")
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewParams(radio.NoCD, 16, 3, 0); err == nil {
		t.Error("beta=0 accepted")
	}
	if _, err := NewParams(radio.NoCD, 16, 3, 1); err == nil {
		t.Error("beta=1 accepted")
	}
	p, err := NewParams(radio.NoCD, 16, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots() != uint64(p.Epochs)*p.SR.Slots() {
		t.Error("Slots accounting wrong")
	}
}

func TestCentersHaveSmallStartBias(t *testing.T) {
	// Vertices with larger delta start earlier and are likelier to be
	// centers; sanity-check that centers exist and starts are in range.
	g := graph.GNP(30, 0.2, 2)
	p, err := NewParams(radio.CD, g.N(), g.MaxDegree(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	devs := partition(t, g, p, 11)
	if len(Clusters(devs)) == 0 {
		t.Fatal("no clusters formed")
	}
	for v, d := range devs {
		if d.Start < 1 || d.Start > p.Epochs {
			t.Errorf("vertex %d start %d outside [1,%d]", v, d.Start, p.Epochs)
		}
	}
}
