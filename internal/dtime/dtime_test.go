package dtime

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/radio"
)

// testParams returns a lean-but-honest parameterization for small graphs
// (full w.h.p. constants make tiny-n wall times pointless; these keep the
// algorithm identical and the failure probability small at test scale).
func testParams(t *testing.T, g *graph.Graph, eps float64) Params {
	t.Helper()
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParams(radio.CD, g.N(), g.MaxDegree(), d, eps)
	if err != nil {
		t.Fatal(err)
	}
	return p.Tune(g.N(), 10, 6, 10, 0)
}

// broadcast runs p on g from source, one Proc per vertex, under the
// radio.Config core's planner gives Theorem 16.
func broadcast(g *graph.Graph, source int, msg any, p Params, seed uint64) (*radio.Result, []DeviceResult, error) {
	return radio.Run(radio.Config{Graph: g, Model: p.SR.Model, Seed: seed, MaxSlots: 1 << 62},
		func(v int, out *DeviceResult) radio.Proc { return Proc(p, v == source, msg, out) })
}

func TestBroadcastLowDiameterGraphs(t *testing.T) {
	gs := []*graph.Graph{
		graph.Star(16),
		graph.GNP(20, 0.3, 1),
		graph.Grid(4, 4),
		graph.Clique(10),
	}
	for _, g := range gs {
		p := testParams(t, g, 0.5)
		ok := false
		var lastErr error
		for seed := uint64(0); seed < 3 && !ok; seed++ {
			_, devs, err := broadcast(g, 0, "dmsg", p, seed)
			if err != nil {
				lastErr = err
				continue
			}
			ok = true
			for _, d := range devs {
				ok = ok && d.Informed
			}
		}
		if !ok {
			t.Errorf("%s: no seed produced a complete broadcast (last err: %v)", g.Name(), lastErr)
		}
	}
}

func TestBroadcastModerateDiameter(t *testing.T) {
	g := graph.Grid(3, 8)
	p := testParams(t, g, 0.5)
	ok := false
	for seed := uint64(0); seed < 3 && !ok; seed++ {
		_, devs, err := broadcast(g, g.N()-1, 7, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		ok = true
		for _, d := range devs {
			ok = ok && d.Informed
		}
	}
	if !ok {
		t.Error("grid broadcast never completed")
	}
}

func TestFinalLabelingGood(t *testing.T) {
	g := graph.GNP(18, 0.3, 4)
	p := testParams(t, g, 0.5)
	_, devs, err := broadcast(g, 0, "x", p, 1)
	if err != nil {
		t.Fatal(err)
	}
	labels := make(labeling.Labeling, len(devs))
	for v, d := range devs {
		labels[v] = d.Label
	}
	if err := labels.Validate(g); err != nil {
		t.Errorf("final labeling invalid: %v", err)
	}
}

func TestIterationsShrinkClusters(t *testing.T) {
	// After the partition iterations, the number of clusters must be
	// well below n (the whole point of contracting the cluster graph).
	g := graph.Grid(4, 5)
	p := testParams(t, g, 0.5).Tune(g.N(), 10, 6, 10, 1)
	_, devs, err := broadcast(g, 0, "x", p, 2)
	if err != nil {
		t.Fatal(err)
	}
	clusters := make(map[int]bool)
	for _, d := range devs {
		clusters[d.Cluster] = true
	}
	if len(clusters) >= g.N() {
		t.Errorf("%d clusters out of %d vertices: no contraction", len(clusters), g.N())
	}
}

func TestEnergyPolylog(t *testing.T) {
	// Energy must stay far below the slot count (devices sleep through
	// nearly the whole schedule).
	g := graph.GNP(20, 0.3, 3)
	p := testParams(t, g, 0.5)
	res, _, err := broadcast(g, 0, "x", p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e := uint64(res.MaxEnergy()); e*10 > res.Slots {
		t.Errorf("max energy %d vs %d slots: devices barely sleep", e, res.Slots)
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewParamsBeta(radio.CD, 16, 3, 4, 0.5); err == nil {
		t.Error("beta > 1/4 accepted")
	}
	if _, err := NewParamsBeta(radio.CD, 16, 3, 4, 0); err == nil {
		t.Error("beta = 0 accepted")
	}
	if _, err := NewParams(radio.CD, 0, 3, 4, 0.5); err == nil {
		t.Error("n = 0 accepted")
	}
	p, err := NewParams(radio.CD, 32, 4, 31, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Iterations < 1 {
		t.Errorf("no iterations for D=31: %+v", p)
	}
	if p.LayerBound() < 1 || p.LayerBound() > 32 {
		t.Errorf("layer bound %d outside [1, n]", p.LayerBound())
	}
}

func TestSlotsAccountingConsistent(t *testing.T) {
	g := graph.Star(12)
	p := testParams(t, g, 0.5)
	res, _, err := broadcast(g, 0, "x", p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots > p.Slots() {
		t.Errorf("used slot %d beyond schedule %d", res.Slots, p.Slots())
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := graph.Star(10)
	p := testParams(t, g, 0.5)
	a, _, err := broadcast(g, 0, "d", p, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := broadcast(g, 0, "d", p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Slots != b.Slots || a.Events != b.Events {
		t.Error("same seed diverged")
	}
}

func TestNoCDVariantSmall(t *testing.T) {
	// The paper presents Section 6 in No-CD; verify a small instance
	// end-to-end in that model too.
	g := graph.Star(8)
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParams(radio.NoCD, g.N(), g.MaxDegree(), d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p = p.Tune(g.N(), 8, 4, 6, 0)
	ok := false
	for seed := uint64(0); seed < 3 && !ok; seed++ {
		_, devs, err := broadcast(g, 0, "nocd", p, seed)
		if err != nil {
			t.Fatal(err)
		}
		ok = true
		for _, d := range devs {
			ok = ok && d.Informed
		}
	}
	if !ok {
		t.Error("No-CD dtime broadcast never completed")
	}
}

// TestBroadcastCostIndependentOfRounds pins the flat cast machine: on a
// star no partition iteration runs, so the trial is the closing Lemma 10
// Broadcast, and each device runs every window of it on one re-armed SR
// window. Quadrupling the round count FinalD lengthens the schedule but
// adds, beyond noise, no allocations. A Broadcast that built a machine
// per All-cast window would allocate about twice as much at 8 rounds.
func TestBroadcastCostIndependentOfRounds(t *testing.T) {
	g := graph.Star(64)
	n := g.N()
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []radio.Model{radio.NoCD, radio.CD, radio.Local} {
		run := func(rounds int) float64 {
			p, err := NewParamsBeta(model, n, g.MaxDegree(), d, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if p.Iterations != 0 {
				t.Fatalf("%v: %d partition iterations on a star, want 0", model, p.Iterations)
			}
			p.FinalD = rounds
			return testing.AllocsPerRun(1, func() {
				_, devs, err := broadcast(g, 0, "m", p, 3)
				if err != nil {
					t.Fatal(err)
				}
				for v, d := range devs {
					if !d.Informed {
						t.Fatalf("%v: %d rounds left device %d uninformed", model, rounds, v)
					}
				}
			})
		}
		a2, a8 := run(2), run(8)
		if ratio := a8 / a2; ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%v: %.0f allocations at FinalD=2, %.0f at 8 (ratio %.2f, want within 10%%)",
				model, a2, a8, ratio)
		}
	}
}

// TestStarRunAllocatesOncePerDevice pins the flat device machine: on a
// star no partition iteration runs, and a device's devState, which holds
// the closing Broadcaster, is its only allocation. With the engine
// reused from a warm SimCache, a run allocates at most n + 4 objects,
// Run's report and device slices among them; a continuation chain
// around the closing Broadcast cost ~10 per device.
func TestStarRunAllocatesOncePerDevice(t *testing.T) {
	g := graph.Star(64)
	n := g.N()
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []radio.Model{radio.CD, radio.NoCD} {
		p, err := NewParamsBeta(model, n, g.MaxDegree(), d, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if p.Iterations != 0 {
			t.Fatalf("%v: %d partition iterations on a star, want 0", model, p.Iterations)
		}
		cfg := radio.Config{Graph: g, Model: model, Seed: 3, MaxSlots: 1 << 62, Sims: &radio.SimCache{}}
		run := func() {
			_, devs, err := radio.Run(cfg, func(v int, out *DeviceResult) radio.Proc {
				return Proc(p, v == 0, "m", out)
			})
			if err != nil {
				t.Fatal(err)
			}
			for v, d := range devs {
				if !d.Informed {
					t.Fatalf("%v: device %d uninformed", model, v)
				}
			}
		}
		run() // warm the cache
		if a := testing.AllocsPerRun(4, run); a > float64(n+4) {
			t.Errorf("%v: %.0f allocations per run of %d devices, want at most %d", model, a, n, n+4)
		}
	}
}

// TestIterationCountStopsAtFixedPoint checks the Lemma 15 count on
// paths. At beta = 1/4 the estimate d <- ceil(3 beta d) + 2 stalls at 11
// above the floor of path:24 (8) and path:12 (7); the count must stop
// there instead of running to its cap of 64, which made path:24's
// schedule 1.24e9 slots. Counts that reach the floor are unchanged.
func TestIterationCountStopsAtFixedPoint(t *testing.T) {
	cases := []struct {
		n      int
		beta   float64
		k      int
		finalD int
	}{
		{12, 0.25, 0, 12},
		{24, 0.25, 7, 12},
		{1024, 0.25, 20, 14},
		{12, 1.0 / 16, 1, 6},
		{24, 1.0 / 16, 1, 8},
		{1024, 1.0 / 16, 3, 11},
		{12, 1.0 / 8, 1, 8},
		{24, 1.0 / 8, 2, 8},
		{1024, 1.0 / 8, 5, 12},
	}
	for _, c := range cases {
		p, err := NewParamsBeta(radio.NoCD, c.n, 2, c.n-1, c.beta)
		if err != nil {
			t.Fatalf("path:%d beta=%v: %v", c.n, c.beta, err)
		}
		if p.Iterations != c.k || p.FinalD != c.finalD {
			t.Errorf("path:%d beta=%v: K=%d FinalD=%d, want K=%d FinalD=%d",
				c.n, c.beta, p.Iterations, p.FinalD, c.k, c.finalD)
		}
	}
}
