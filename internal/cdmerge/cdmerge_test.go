package cdmerge

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/radio"
)

func testParams(t *testing.T, g *graph.Graph, xi float64) Params {
	t.Helper()
	p, err := NewParams(g.N(), g.MaxDegree(), xi)
	if err != nil {
		t.Fatal(err)
	}
	// Lean outer/inner counts for test-scale graphs.
	return p.Tune(10, 3, g.N())
}

// broadcast runs p on g from vertex 0, one Proc per vertex, and returns
// the run, every device's final state and the final labeling.
func broadcast(t *testing.T, g *graph.Graph, msg any, p Params, seed uint64) (*radio.Result, []DeviceResult, labeling.Labeling) {
	t.Helper()
	res, devs, err := radio.Run(radio.Config{Graph: g, Model: radio.CD, Seed: seed, MaxSlots: 1 << 62},
		func(v int, out *DeviceResult) radio.Proc { return Proc(p, v == 0, msg, out) })
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	labels := make(labeling.Labeling, len(devs))
	for v, d := range devs {
		labels[v] = d.Label
	}
	return res, devs, labels
}

func TestBroadcastSmallGraphs(t *testing.T) {
	gs := []*graph.Graph{
		graph.Path(10), graph.Star(12), graph.GNP(16, 0.3, 1), graph.Cycle(12),
	}
	for _, g := range gs {
		p := testParams(t, g, 0.5)
		ok := false
		for seed := uint64(0); seed < 3 && !ok; seed++ {
			_, devs, _ := broadcast(t, g, "cd20", p, seed)
			ok = true
			for _, d := range devs {
				ok = ok && d.Informed
			}
		}
		if !ok {
			t.Errorf("%s: broadcast never completed", g.Name())
		}
	}
}

func TestFinalLabelingGood(t *testing.T) {
	g := graph.GNP(14, 0.3, 3)
	p := testParams(t, g, 0.5)
	_, _, labels := broadcast(t, g, "x", p, 1)
	if err := labels.Validate(g); err != nil {
		t.Errorf("final labeling invalid: %v", err)
	}
}

func TestMergingShrinksRoots(t *testing.T) {
	// After the outer rounds, far fewer roots than vertices must remain.
	g := graph.Grid(4, 4)
	p := testParams(t, g, 0.5)
	best := g.N()
	for seed := uint64(0); seed < 3; seed++ {
		_, _, labels := broadcast(t, g, "x", p, seed)
		if r := len(labels.Roots()); r < best {
			best = r
		}
	}
	if best > g.N()/2 {
		t.Errorf("best root count %d of %d: merging ineffective", best, g.N())
	}
}

func TestTreeStructureConsistent(t *testing.T) {
	// Parents must be neighbors and sit exactly one layer up.
	g := graph.GNP(14, 0.35, 5)
	p := testParams(t, g, 0.5)
	_, devs, _ := broadcast(t, g, "x", p, 2)
	for v, d := range devs {
		if d.Parent < 0 {
			if d.Label != 0 {
				t.Errorf("root %d has layer %d", v, d.Label)
			}
			continue
		}
		if !g.HasEdge(v, d.Parent) {
			t.Errorf("vertex %d's parent %d is not a neighbor", v, d.Parent)
		}
		if devs[d.Parent].Label != d.Label-1 {
			t.Errorf("vertex %d layer %d but parent %d layer %d",
				v, d.Label, d.Parent, devs[d.Parent].Label)
		}
	}
}

func TestEnergyFarBelowTime(t *testing.T) {
	// Theorem 20's whole point: Theta(Delta n^{1+xi}) time but polylog
	// energy.
	g := graph.GNP(16, 0.3, 4)
	p := testParams(t, g, 0.5)
	res, _, _ := broadcast(t, g, "x", p, 1)
	if e := uint64(res.MaxEnergy()); e*50 > res.Slots {
		t.Errorf("max energy %d vs %d slots", e, res.Slots)
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewParams(0, 4, 0.5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewParams(16, 4, 0); err == nil {
		t.Error("xi=0 accepted")
	}
	if _, err := NewParams(16, 4, 1.5); err == nil {
		t.Error("xi>1 accepted")
	}
	p, err := NewParams(16, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.C < 2 || p.K < 5 {
		t.Errorf("degenerate parameters: %+v", p)
	}
	if p.Slots() == 0 {
		t.Error("zero schedule")
	}
}

func TestSlotsAccounting(t *testing.T) {
	g := graph.Path(8)
	p := testParams(t, g, 0.5)
	res, _, _ := broadcast(t, g, "x", p, 0)
	if res.Slots > p.Slots() {
		t.Errorf("used slot %d beyond schedule %d", res.Slots, p.Slots())
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := graph.Star(8)
	p := testParams(t, g, 0.5)
	a, _, _ := broadcast(t, g, "d", p, 3)
	b, _, _ := broadcast(t, g, "d", p, 3)
	if a.Slots != b.Slots || a.Events != b.Events {
		t.Error("same seed diverged")
	}
}

func TestXiTradeoff(t *testing.T) {
	// Larger xi means a bigger palette (more time) and fewer colorings
	// (less energy per pass).
	pSmall, err := NewParams(64, 8, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pLarge, err := NewParams(64, 8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if pLarge.K <= pSmall.K {
		t.Errorf("palette did not grow with xi: %d vs %d", pLarge.K, pSmall.K)
	}
	if pLarge.C >= pSmall.C {
		t.Errorf("coloring count did not shrink with xi: %d vs %d", pLarge.C, pSmall.C)
	}
}
