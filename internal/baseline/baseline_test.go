package baseline

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

// run broadcasts msg from vertex 0 of g with the decay protocol sized
// by g's diameter, one Proc per vertex.
func run(t *testing.T, g *graph.Graph, msg any, seed uint64, model radio.Model) (*radio.Result, []DeviceResult) {
	t.Helper()
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	p := NewParams(g.N(), g.MaxDegree(), d)
	res, devs, err := radio.Run(radio.Config{Graph: g, Model: model, Seed: seed}, func(v int, out *DeviceResult) radio.Proc {
		return Proc(p, v == 0, msg, out)
	})
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	return res, devs
}

func TestDecayBroadcastInformsAll(t *testing.T) {
	gs := []*graph.Graph{
		graph.Path(32), graph.Star(32), graph.GNP(48, 0.12, 1),
		graph.Grid(6, 6), graph.RandomTree(40, 2), graph.K2k(10),
	}
	for _, g := range gs {
		_, devs := run(t, g, "decay", 7, radio.NoCD)
		for v, d := range devs {
			if !d.Informed || d.Msg != "decay" {
				t.Errorf("%s: vertex %d holds %v (informed %v)", g.Name(), v, d.Msg, d.Informed)
			}
		}
	}
}

func TestDecayIsFastButEnergyHungry(t *testing.T) {
	// Characteristic baseline shape: completion in O(D log) slots, but
	// per-vertex energy comparable to its waiting time.
	g := graph.Path(64)
	res, devs := run(t, g, "decay", 3, radio.NoCD)
	for v, d := range devs {
		if !d.Informed {
			t.Fatalf("vertex %d uninformed", v)
		}
	}
	// Far vertices must have spent energy proportional to their distance
	// (they listened the whole time): energy of the last vertex is a
	// large fraction of its receive slot.
	last := devs[63]
	if last.ReceivedAt == 0 {
		t.Fatal("vertex 63 has no receive slot")
	}
	e := res.Energy[63]
	if float64(e) < 0.5*float64(last.ReceivedAt) {
		t.Errorf("baseline energy %d unexpectedly small vs receive slot %d", e, last.ReceivedAt)
	}
}

func TestDecayTimeLinearInDiameter(t *testing.T) {
	// Receive slots grow roughly linearly with distance on a path.
	g := graph.Path(48)
	_, devs := run(t, g, "decay", 5, radio.NoCD)
	r16 := devs[16].ReceivedAt
	r47 := devs[47].ReceivedAt
	if r47 <= r16 {
		t.Errorf("farther vertex received earlier: %d vs %d", r47, r16)
	}
}

func TestSlotsAccounting(t *testing.T) {
	g := graph.Star(16)
	res, _ := run(t, g, "x", 1, radio.NoCD)
	if p := NewParams(16, 15, 2); res.Slots > p.Slots() {
		t.Errorf("used slot %d beyond schedule %d", res.Slots, p.Slots())
	}
}

func TestWorksInCDToo(t *testing.T) {
	g := graph.GNP(24, 0.2, 9)
	_, devs := run(t, g, "cd", 2, radio.CD)
	for v, d := range devs {
		if !d.Informed {
			t.Errorf("CD decay broadcast left vertex %d uninformed", v)
		}
	}
}
