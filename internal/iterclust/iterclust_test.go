package iterclust

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/radio"
)

// broadcast runs p on g from source, one Proc per vertex, and returns
// the run, every device's final state and the final labeling.
func broadcast(t *testing.T, g *graph.Graph, source int, msg any, p Params, seed uint64) (*radio.Result, []DeviceResult, labeling.Labeling) {
	t.Helper()
	res, devs, err := radio.Run(radio.Config{Graph: g, Model: p.Model, Seed: seed},
		func(v int, out *DeviceResult) radio.Proc { return Proc(p, v == source, msg, out) })
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	labels := make(labeling.Labeling, len(devs))
	for v, d := range devs {
		labels[v] = d.Label
	}
	return res, devs, labels
}

func TestBroadcastInformsEveryoneLocal(t *testing.T) {
	gs := []*graph.Graph{
		graph.Path(24), graph.Star(24), graph.GNP(32, 0.15, 1),
		graph.RandomTree(32, 2), graph.Grid(5, 6), graph.Cycle(20),
	}
	for _, g := range gs {
		p := NewParams(radio.Local, g.N(), g.MaxDegree())
		_, devs, labels := broadcast(t, g, 0, "payload", p, 7)
		for v, d := range devs {
			if !d.Informed || d.Msg != "payload" {
				t.Errorf("%s: device %d holds %v (informed %v)", g.Name(), v, d.Msg, d.Informed)
			}
		}
		if err := labels.Validate(g); err != nil {
			t.Errorf("%s: final labeling invalid: %v", g.Name(), err)
		}
		if r := len(labels.Roots()); r != 1 {
			t.Errorf("%s: %d roots after refinement", g.Name(), r)
		}
	}
}

func TestBroadcastInformsEveryoneCD(t *testing.T) {
	gs := []*graph.Graph{graph.Path(16), graph.GNP(24, 0.2, 3), graph.Star(20)}
	for _, g := range gs {
		p := NewParams(radio.CD, g.N(), g.MaxDegree())
		_, devs, labels := broadcast(t, g, g.N()-1, 99, p, 11)
		for v, d := range devs {
			if !d.Informed {
				t.Errorf("%s: device %d not informed", g.Name(), v)
			}
		}
		if err := labels.Validate(g); err != nil {
			t.Errorf("%s: final labeling invalid: %v", g.Name(), err)
		}
	}
}

func TestBroadcastInformsEveryoneNoCD(t *testing.T) {
	gs := []*graph.Graph{graph.Path(12), graph.GNP(20, 0.25, 5), graph.K2k(8)}
	for _, g := range gs {
		p := NewParams(radio.NoCD, g.N(), g.MaxDegree())
		_, devs, labels := broadcast(t, g, 0, "m", p, 13)
		for v, d := range devs {
			if !d.Informed {
				t.Errorf("%s: device %d not informed", g.Name(), v)
			}
		}
		if err := labels.Validate(g); err != nil {
			t.Errorf("%s: final labeling invalid: %v", g.Name(), err)
		}
	}
}

func TestTheorem12CD(t *testing.T) {
	g := graph.GNP(24, 0.2, 9)
	p := NewTheorem12Params(g.N(), g.MaxDegree(), 0.5)
	_, devs, labels := broadcast(t, g, 0, "m12", p, 3)
	for v, d := range devs {
		if !d.Informed {
			t.Errorf("Theorem 12 run left device %d uninformed", v)
		}
	}
	if err := labels.Validate(g); err != nil {
		t.Errorf("labeling invalid: %v", err)
	}
	// Theorem 12 only guarantees <= log n roots (then d = log n covers it).
	if r := len(labels.Roots()); r > p.FinalD+1 {
		t.Errorf("%d roots exceed the d=%d bound", r, p.FinalD)
	}
}

func TestRefinementShrinksRoots(t *testing.T) {
	// After Theta(log n) iterations the labeling must have exactly one
	// root (w.h.p.; deterministic seeds make this reproducible).
	for seed := uint64(0); seed < 5; seed++ {
		g := graph.Grid(4, 6)
		p := NewParams(radio.Local, g.N(), g.MaxDegree())
		_, _, labels := broadcast(t, g, 0, nil, p, seed)
		if r := len(labels.Roots()); r != 1 {
			t.Errorf("seed %d: %d roots", seed, r)
		}
	}
}

func TestEnergyScalesPolylogLocal(t *testing.T) {
	// LOCAL energy is O(log n): quadrupling n (16 -> 64) must grow max
	// energy by far less than 4x (a linear-energy algorithm would
	// quadruple it; log growth gives ~1.5x).
	measure := func(n int) int {
		g := graph.GNP(n, 0.2, 2)
		p := NewParams(radio.Local, g.N(), g.MaxDegree())
		res, devs, _ := broadcast(t, g, 0, "x", p, 1)
		for v, d := range devs {
			if !d.Informed {
				t.Fatalf("n=%d: device %d uninformed", n, v)
			}
		}
		return res.MaxEnergy()
	}
	e16, e64 := measure(16), measure(64)
	ratio := float64(e64) / float64(e16)
	if ratio > 2.5 {
		t.Errorf("energy grew %vx from n=16 (%d) to n=64 (%d); expected logarithmic growth",
			ratio, e16, e64)
	}
}

func TestCDEnergyBelowNoCD(t *testing.T) {
	// The Remark 9 pre-check should make CD receivers far cheaper than
	// No-CD receivers on the same topology.
	g := graph.GNP(24, 0.2, 4)
	pc := NewParams(radio.CD, g.N(), g.MaxDegree())
	pn := NewParams(radio.NoCD, g.N(), g.MaxDegree())
	oc, cDevs, _ := broadcast(t, g, 0, "x", pc, 5)
	on, nDevs, _ := broadcast(t, g, 0, "x", pn, 5)
	for v := range cDevs {
		if !cDevs[v].Informed || !nDevs[v].Informed {
			t.Fatalf("device %d uninformed", v)
		}
	}
	if oc.MaxEnergy() >= on.MaxEnergy() {
		t.Errorf("CD energy %d !< No-CD energy %d", oc.MaxEnergy(), on.MaxEnergy())
	}
}

func TestScheduleLengthMatches(t *testing.T) {
	g := graph.Path(10)
	p := NewParams(radio.Local, g.N(), g.MaxDegree())
	res, _, _ := broadcast(t, g, 0, "x", p, 1)
	if res.Slots > p.Slots() {
		t.Errorf("used slot %d beyond schedule %d", res.Slots, p.Slots())
	}
}

func TestSingleVertexBroadcast(t *testing.T) {
	g := graph.New(1)
	p := NewParams(radio.Local, 1, 1)
	if _, devs, _ := broadcast(t, g, 0, "solo", p, 0); !devs[0].Informed {
		t.Error("lone source not informed")
	}
}

func TestTwoVertexAllModels(t *testing.T) {
	for _, model := range []radio.Model{radio.Local, radio.CD, radio.NoCD} {
		g := graph.Path(2)
		p := NewParams(model, 2, 1)
		if _, devs, _ := broadcast(t, g, 0, 5, p, 2); !devs[0].Informed || !devs[1].Informed {
			t.Errorf("%v: not informed", model)
		}
	}
}

func TestIntermediateLabelingsStayGood(t *testing.T) {
	// Run refinements only (no broadcast) step by step and validate the
	// labeling after every iteration — the paper's central invariant.
	g := graph.GNP(20, 0.25, 8)
	n := g.N()
	const iters = 6
	sr := cluster.NewSpec(radio.Local, n, g.MaxDegree())
	perIter := make([][]int, iters)
	for i := range perIter {
		perIter[i] = make([]int, n)
	}
	per := cluster.RefineSlots(sr, n, 1)
	_, _, err := radio.Run(radio.Config{Graph: g, Model: radio.Local, Seed: 4}, func(v int, final *int) radio.Proc {
		return radio.ContProc(func(ch radio.Channel) radio.Cont {
			lab := 0
			var iter func(it int, t uint64) radio.Cont
			iter = func(it int, t uint64) radio.Cont {
				if it == iters {
					return radio.Do(func() { *final = lab }, nil)
				}
				r := &cluster.Refiner{SR: sr, Layers: n}
				return radio.EvalCh(func(ch radio.Channel) radio.Cont {
					becomeRoot := lab == 0 && ch.Rand().Float64() < 0.5
					r.Old = lab
					r.Arm(t, 1, becomeRoot)
					return radio.ProcCont(r, radio.Do(func() {
						lab = r.New
						perIter[it][v] = lab
					}, iter(it+1, t+per)))
				})
			}
			return iter(0, 1)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	prevRoots := n + 1
	for it := 0; it < iters; it++ {
		l := labeling.Labeling(perIter[it])
		if err := l.Validate(g); err != nil {
			t.Fatalf("iteration %d: invalid labeling: %v", it, err)
		}
		roots := len(l.Roots())
		if roots > prevRoots {
			t.Errorf("iteration %d: roots grew %d -> %d", it, prevRoots, roots)
		}
		prevRoots = roots
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := graph.GNP(16, 0.3, 1)
	p := NewParams(radio.CD, g.N(), g.MaxDegree())
	a, _, aLabels := broadcast(t, g, 0, "d", p, 77)
	b, _, bLabels := broadcast(t, g, 0, "d", p, 77)
	if a.Slots != b.Slots || a.Events != b.Events {
		t.Error("identical seeds diverged")
	}
	for v := range aLabels {
		if aLabels[v] != bLabels[v] {
			t.Errorf("label of %d differs across identical runs", v)
		}
	}
}

// TestSweepCostIndependentOfLayerBound pins the sparse-sweep structure:
// a device builds only the (at most two) windows of a sweep it can act
// in, so quadrupling the layer bound stretches the schedule but adds no
// events and, beyond noise, no allocations. A sweep that built every
// window would allocate several times as much at 4n.
func TestSweepCostIndependentOfLayerBound(t *testing.T) {
	g := graph.GNP(16, 0.5, 11)
	n := g.N()
	for _, model := range []radio.Model{radio.NoCD, radio.CD, radio.Local} {
		run := func(layers int) (allocs float64, events uint64) {
			p := NewParams(model, n, g.MaxDegree())
			p.Layers = layers
			allocs = testing.AllocsPerRun(1, func() {
				res, _, _ := broadcast(t, g, 0, "m", p, 3)
				events = res.Events
			})
			return allocs, events
		}
		a1, e1 := run(n)
		a4, e4 := run(4 * n)
		if e1 != e4 {
			t.Errorf("%v: %d events at Layers=n, %d at 4n", model, e1, e4)
		}
		if ratio := a4 / a1; ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%v: %.0f allocations at Layers=n, %.0f at 4n (ratio %.2f, want within 10%%)",
				model, a1, a4, ratio)
		}
	}
}

// TestRunCostIndependentOfIterations pins the flat device machine: a
// device re-arms one Refiner for every refinement, so with the engine
// reused from a warm SimCache a run allocates the same number of objects
// at 16 refinements as at 4. A continuation chain per refinement cost
// ~6 closures per device each, and a LOCAL receive window that buffered
// everything it heard grew as later refinements heard more senders.
func TestRunCostIndependentOfIterations(t *testing.T) {
	g := graph.GNP(16, 0.3, 2)
	for _, model := range []radio.Model{radio.NoCD, radio.CD, radio.Local} {
		run := func(iters int) float64 {
			p := NewParams(model, g.N(), g.MaxDegree())
			p.Iterations = iters
			cfg := radio.Config{Graph: g, Model: model, Seed: 3, Sims: &radio.SimCache{}}
			run := func() {
				if _, _, err := radio.Run(cfg, func(v int, out *DeviceResult) radio.Proc {
					return Proc(p, v == 0, "m", out)
				}); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the cache
			return testing.AllocsPerRun(4, run)
		}
		if a4, a16 := run(4), run(16); a16 != a4 {
			t.Errorf("%v: %.0f allocations per run at 4 refinements, %.0f at 16", model, a4, a16)
		}
	}
}
