package coloring

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/iterclust"
	"repro/internal/radio"
)

// halt is an inner proc that ends the device as soon as the setup does.
var halt = radio.ProcFunc(func(radio.Channel, radio.Feedback) radio.Action { return radio.Halt() })

func TestLearnDegreeFindsAllNeighbors(t *testing.T) {
	gs := []*graph.Graph{graph.Path(8), graph.Cycle(10), graph.Star(6), graph.Grid(3, 4)}
	for _, g := range gs {
		n := g.N()
		results := runColoring(t, g, 5)
		for v := 0; v < n; v++ {
			learned := results[v].Neighbors
			want := append([]int(nil), g.Neighbors(v)...)
			if len(learned) != len(want) {
				t.Errorf("%s: vertex %d learned %v, want %d neighbors", g.Name(), v, learned, len(want))
				continue
			}
			wantSet := make(map[int]bool, len(want))
			for _, u := range want {
				wantSet[u] = true
			}
			for _, u := range learned {
				if !wantSet[u] {
					t.Errorf("%s: vertex %d learned non-neighbor %d", g.Name(), v, u)
				}
			}
		}
	}
}

// runColoring executes the setup phase on g and returns the per-vertex
// results.
func runColoring(t *testing.T, g *graph.Graph, seed uint64) []ColoringResult {
	t.Helper()
	p := NewParams(g.N(), g.MaxDegree())
	_, results, err := radio.Run(radio.Config{Graph: g, Model: radio.NoCD, Seed: seed},
		func(_ int, out *ColoringResult) radio.Proc { return SimulateProc(1, p, halt, out) })
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	return results
}

func TestTwoHopColoringProper(t *testing.T) {
	gs := []*graph.Graph{
		graph.Path(12), graph.Cycle(9), graph.Grid(3, 5),
		graph.RandomBoundedDegree(20, 4, 1), graph.Star(5),
	}
	for _, g := range gs {
		results := runColoring(t, g, 3)
		k := NewParams(g.N(), g.MaxDegree()).Colors()
		for v := 0; v < g.N(); v++ {
			if results[v].Color == 0 {
				t.Errorf("%s: vertex %d never fixed a color", g.Name(), v)
				continue
			}
			if results[v].Color < 1 || results[v].Color > k {
				t.Errorf("%s: vertex %d color %d outside palette", g.Name(), v, results[v].Color)
			}
		}
		// Proper on G + G^2: distinct colors within distance 2.
		for v := 0; v < g.N(); v++ {
			for _, u := range g.TwoHopNeighbors(v) {
				if u > v && results[v].Color == results[u].Color && results[v].Color != 0 {
					t.Errorf("%s: distance<=2 vertices %d and %d share color %d",
						g.Name(), v, u, results[v].Color)
				}
			}
		}
	}
}

func TestTwoHopColoringNeighborViews(t *testing.T) {
	g := graph.Cycle(8)
	results := runColoring(t, g, 7)
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			got, ok := results[v].NeighborColors[u]
			if !ok {
				t.Errorf("vertex %d has no color record for neighbor %d", v, u)
				continue
			}
			if got != results[u].Color {
				t.Errorf("vertex %d thinks neighbor %d has color %d, actual %d",
					v, u, got, results[u].Color)
			}
		}
	}
}

func TestSimulatedLocalCollisionFree(t *testing.T) {
	// Through the simulation, a round where ALL vertices transmit must be
	// heard perfectly by all listeners in the next round — impossible
	// without the coloring under No-CD.
	g := graph.Cycle(10)
	n := g.N()
	p := NewParams(n, g.MaxDegree())
	heardCounts := make([]int, n)
	cres := make([]ColoringResult, n)
	pop := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		v := v
		inner := radio.ContProc(func(ch radio.Channel) radio.Cont {
			idx := ch.Index()
			// Virtual slot 1: everyone transmits; slot 2: everyone
			// listens to silence; slot 3: everyone transmits again;
			// slot 4: listen. Slots 5/6 probe an empty virtual slot.
			return radio.Then(radio.Transmit(1, idx),
				radio.Recv(2, func(fb radio.Feedback) radio.Cont {
					if fb.Status != radio.Silence {
						t.Errorf("vertex %d: expected silence in virtual slot 2", idx)
					}
					return radio.Then(radio.Transmit(3, idx*10),
						radio.Recv(4, func(radio.Feedback) radio.Cont {
							return radio.Then(radio.Transmit(5, idx),
								radio.Recv(6, func(fb radio.Feedback) radio.Cont {
									heardCounts[idx] = len(fb.Payloads())
									return nil
								}))
						}))
				}))
		})
		pop[v].Proc = SimulateProc(1, p, inner, &cres[v])
	}
	if _, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.NoCD, Seed: 11}, pop); err != nil {
		t.Fatal(err)
	}
	// Nothing was transmitted in virtual slot 6, so everyone hears nothing;
	// the real assertion is that no panic/collision corrupted the run.
	for v, c := range heardCounts {
		if c != 0 {
			t.Errorf("vertex %d heard %d messages in an empty virtual slot", v, c)
		}
	}
}

func TestSimulatedLocalDeliversAllNeighbors(t *testing.T) {
	// Alternate: even vertices transmit in virtual slot 1, odd vertices
	// listen; every odd vertex on a cycle must hear BOTH neighbors —
	// the LOCAL guarantee that No-CD alone cannot provide.
	g := graph.Cycle(8)
	n := g.N()
	p := NewParams(n, g.MaxDegree())
	heard := make([][]any, n)
	cres := make([]ColoringResult, n)
	pop := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		v := v
		inner := radio.ContProc(func(ch radio.Channel) radio.Cont {
			if ch.Index()%2 == 0 {
				return radio.Then(radio.Transmit(1, ch.Index()), nil)
			}
			return radio.Recv(1, func(fb radio.Feedback) radio.Cont {
				heard[v] = fb.Payloads()
				return nil
			})
		})
		pop[v].Proc = SimulateProc(1, p, inner, &cres[v])
	}
	if _, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.NoCD, Seed: 13}, pop); err != nil {
		t.Fatal(err)
	}
	for v := 1; v < n; v += 2 {
		if len(heard[v]) != 2 {
			t.Errorf("vertex %d heard %d of 2 simultaneous neighbors", v, len(heard[v]))
		}
	}
}

func TestCorollary13BroadcastViaSimulation(t *testing.T) {
	// The headline payoff: run the LOCAL iterative-clustering Broadcast
	// through the Theorem 3 simulation on a physical No-CD network with
	// Delta = O(1) — Corollary 13.
	gs := []*graph.Graph{graph.Path(12), graph.Cycle(12), graph.RandomBoundedDegree(16, 3, 2)}
	for _, g := range gs {
		n := g.N()
		cp := NewParams(n, g.MaxDegree())
		ip := iterclust.NewParams(radio.Local, n, g.MaxDegree())
		devs := make([]iterclust.DeviceResult, n)
		cres := make([]ColoringResult, n)
		pop := make([]radio.Device, n)
		for v := 0; v < n; v++ {
			pop[v].Proc = SimulateProc(1, cp,
				iterclust.Proc(ip, v == 0, "c13", &devs[v]), &cres[v])
		}
		res, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.NoCD, Seed: 17}, pop)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		for v, d := range devs {
			if !d.Informed || d.Msg != "c13" {
				t.Errorf("%s: vertex %d not informed via simulation", g.Name(), v)
			}
		}
		if res.MaxEnergy() == 0 {
			t.Errorf("%s: zero energy?", g.Name())
		}
	}
}

func TestParamsSlotAccounting(t *testing.T) {
	p := NewParams(16, 3)
	if p.Colors() != 18 {
		t.Errorf("Colors = %d, want 2*9", p.Colors())
	}
	want := uint64(p.LearnSlots) + uint64(p.ColorIters*p.StepSlots) + uint64(p.LearnSlots)
	if p.SetupSlots() != want {
		t.Errorf("SetupSlots = %d, want %d", p.SetupSlots(), want)
	}
	// Delta clamp.
	p0 := NewParams(4, 0)
	if p0.Delta != 1 || p0.Colors() != 2 {
		t.Errorf("degenerate delta not clamped: %+v", p0)
	}
}

func TestVirtualClockDiscipline(t *testing.T) {
	// Virtual sleeps and transmits must keep both clocks consistent.
	g := graph.Path(2)
	p := NewParams(2, 1)
	cres := make([]ColoringResult, 2)
	talker := radio.ContProc(func(ch radio.Channel) radio.Cont {
		return radio.Then(radio.Sleep(5), radio.EvalCh(func(ch radio.Channel) radio.Cont {
			if ch.Now() != 5 {
				t.Errorf("virtual Now = %d after Sleep(5)", ch.Now())
			}
			return radio.Then(radio.Transmit(7, "x"), radio.EvalCh(func(ch radio.Channel) radio.Cont {
				if ch.Now() != 7 {
					t.Errorf("virtual Now = %d after Transmit(7)", ch.Now())
				}
				return nil
			}))
		}))
	})
	listener := radio.ContProc(func(ch radio.Channel) radio.Cont {
		return radio.Recv(7, func(fb radio.Feedback) radio.Cont {
			if fb.Status != radio.Received || fb.Payload != "x" {
				t.Errorf("virtual listen missed the message: %+v", fb)
			}
			return nil
		})
	})
	pop := []radio.Device{
		{Proc: SimulateProc(1, p, talker, &cres[0])},
		{Proc: SimulateProc(1, p, listener, &cres[1])},
	}
	if _, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.NoCD, Seed: 19}, pop); err != nil {
		t.Fatal(err)
	}
}

func TestSimulationRejectsRuns(t *testing.T) {
	// The simulation translates one virtual slot per action, so an inner
	// run must halt the device with an error rather than shrink to one
	// slot. A run of one slot is a plain action.
	g := graph.Path(2)
	p := NewParams(2, 1)
	for _, tc := range []struct {
		name string
		act  radio.Action
		fail bool
	}{
		{"transmit run", radio.TransmitRun(1, 3, "x"), true},
		{"listen run", radio.ListenRun(1, 3), true},
		{"one-slot run", radio.TransmitRun(1, 1, "x"), false},
	} {
		cres := make([]ColoringResult, 2)
		pop := make([]radio.Device, 2)
		for v := range pop {
			pop[v].Proc = SimulateProc(1, p, radio.ContProc(func(radio.Channel) radio.Cont {
				return radio.Then(tc.act, nil)
			}), &cres[v])
		}
		_, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.NoCD, Seed: 23}, pop)
		if tc.fail && (err == nil || !strings.Contains(err.Error(), "action runs are not available")) {
			t.Errorf("%s: want the run rejected, got %v", tc.name, err)
		}
		if !tc.fail && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
