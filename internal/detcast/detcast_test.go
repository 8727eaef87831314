package detcast

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/radio"
)

// broadcast runs p on g from vertex 0, one Proc per vertex, under the
// radio.Config core's planner gives the deterministic algorithms.
func broadcast(t *testing.T, g *graph.Graph, msg any, p Params, seed uint64) (*radio.Result, []DeviceResult) {
	t.Helper()
	res, devs, err := radio.Run(radio.Config{Graph: g, Model: p.Model, Seed: seed, IDSpace: p.IDSpace, MaxSlots: 1 << 62},
		func(v int, out *DeviceResult) radio.Proc { return Proc(p, v == 0, msg, out) })
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	return res, devs
}

func TestDetLocalBroadcast(t *testing.T) {
	gs := []*graph.Graph{
		graph.Path(10), graph.Star(12), graph.Cycle(9),
		graph.GNP(14, 0.3, 1), graph.Grid(3, 4),
	}
	for _, g := range gs {
		p, err := NewParams(radio.Local, g.N(), g.N())
		if err != nil {
			t.Fatal(err)
		}
		_, devs := broadcast(t, g, "detL", p, 0)
		missing, roots := 0, 0
		for _, d := range devs {
			if !d.Informed {
				missing++
			}
			if d.Parent < 0 {
				roots++
			}
		}
		if missing > 0 {
			t.Errorf("%s: %d vertices uninformed (roots: %d)", g.Name(), missing, roots)
		}
	}
}

func TestDetCDBroadcast(t *testing.T) {
	gs := []*graph.Graph{
		graph.Path(8), graph.Star(8), graph.GNP(10, 0.35, 2),
	}
	for _, g := range gs {
		p, err := NewParams(radio.CD, g.N(), g.N())
		if err != nil {
			t.Fatal(err)
		}
		_, devs := broadcast(t, g, "detCD", p, 0)
		missing, roots := 0, 0
		for _, d := range devs {
			if !d.Informed {
				missing++
			}
			if d.Parent < 0 {
				roots++
			}
		}
		if missing > 0 {
			t.Errorf("%s: %d vertices uninformed (roots: %d)", g.Name(), missing, roots)
		}
	}
}

func TestDetSingleTreeFormed(t *testing.T) {
	for _, model := range []radio.Model{radio.Local, radio.CD} {
		g := graph.Grid(3, 3)
		p, err := NewParams(model, g.N(), g.N())
		if err != nil {
			t.Fatal(err)
		}
		_, devs := broadcast(t, g, "x", p, 0)
		labels := make(labeling.Labeling, len(devs))
		roots := 0
		for v, d := range devs {
			labels[v] = d.Label
			if d.Parent < 0 {
				roots++
			}
		}
		if roots != 1 {
			t.Errorf("%v: %d roots remain", model, roots)
		}
		if err := labels.Validate(g); err != nil {
			t.Errorf("%v: final labeling invalid: %v", model, err)
		}
		// Parents are neighbors, one layer up.
		for v, d := range devs {
			if d.Parent < 0 {
				continue
			}
			if !g.HasEdge(v, d.Parent) {
				t.Errorf("%v: parent of %d is non-neighbor %d", model, v, d.Parent)
			}
			if devs[d.Parent].Label != d.Label-1 {
				t.Errorf("%v: layer mismatch at %d", model, v)
			}
		}
	}
}

func TestDeterministicIdenticalRuns(t *testing.T) {
	// A deterministic algorithm must produce the identical outcome on
	// every run, regardless of seed.
	g := graph.GNP(12, 0.3, 5)
	p, err := NewParams(radio.Local, g.N(), g.N())
	if err != nil {
		t.Fatal(err)
	}
	a, aDevs := broadcast(t, g, "d", p, 1)
	b, bDevs := broadcast(t, g, "d", p, 999)
	if a.Slots != b.Slots || a.Events != b.Events {
		t.Error("deterministic algorithm diverged across seeds")
	}
	for v := range aDevs {
		if aDevs[v].Label != bDevs[v].Label || aDevs[v].Parent != bDevs[v].Parent {
			t.Errorf("vertex %d state differs across seeds", v)
		}
	}
}

func TestDetEnergyFarBelowTime(t *testing.T) {
	// Theorem 27's point: astronomically long schedule, tiny energy.
	g := graph.Path(8)
	p, err := NewParams(radio.CD, g.N(), g.N())
	if err != nil {
		t.Fatal(err)
	}
	res, _ := broadcast(t, g, "x", p, 0)
	if e := uint64(res.MaxEnergy()); e*100 > res.Slots {
		t.Errorf("max energy %d vs %d slots", e, res.Slots)
	}
}

func TestDetPermutedIDs(t *testing.T) {
	// The algorithm must work with an arbitrary ID assignment, not just
	// the identity.
	g := graph.Path(6)
	p, err := NewParams(radio.Local, g.N(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{7, 3, 8, 1, 5, 2}
	_, devs, err := radio.Run(radio.Config{Graph: g, Model: radio.Local, IDSpace: 8, IDs: ids, MaxSlots: 1 << 62},
		func(v int, out *DeviceResult) radio.Proc { return Proc(p, v == 2, "perm", out) })
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range devs {
		if !d.Informed || d.Msg != "perm" {
			t.Errorf("vertex %d not informed with permuted IDs", v)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewParams(radio.NoCD, 8, 8); err == nil {
		t.Error("No-CD accepted (Appendix A has no No-CD algorithm)")
	}
	if _, err := NewParams(radio.Local, 0, 8); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewParams(radio.Local, 8, 4); err == nil {
		t.Error("idSpace < n accepted")
	}
}

func TestSlotsAccounting(t *testing.T) {
	for _, model := range []radio.Model{radio.Local, radio.CD} {
		g := graph.Path(6)
		p, err := NewParams(model, g.N(), g.N())
		if err != nil {
			t.Fatal(err)
		}
		res, _ := broadcast(t, g, "x", p, 0)
		if res.Slots > p.Slots() {
			t.Errorf("%v: used slot %d beyond schedule %d", model, res.Slots, p.Slots())
		}
	}
}

// stepCounter counts the Step calls of the proc it wraps.
type stepCounter struct {
	p radio.Proc
	n *int
}

func (c stepCounter) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	*c.n++
	return c.p.Step(ch, fb)
}

// TestPassesAreSparse checks that a device builds only the steps and
// phases it acts in: a pass step it sits out, a cluster round its
// cluster does not take part in and a CD combine off its root ID's path
// must cost no Step call, so the population steps at most twice per
// event. Building every combine costs close to four Step calls per
// event in a 64-ID space, and stepping every layer of every pass tens
// to hundreds.
func TestPassesAreSparse(t *testing.T) {
	g := graph.Path(12)
	cases := []struct {
		name    string
		model   radio.Model
		idSpace int
	}{
		{"LOCAL", radio.Local, 12},
		{"CD", radio.CD, 12},
		{"CD ids64", radio.CD, 64},
	}
	for _, c := range cases {
		p, err := NewParams(c.model, g.N(), c.idSpace)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		res, _, err := radio.Run(radio.Config{Graph: g, Model: c.model, IDSpace: p.IDSpace, MaxSlots: 1 << 62},
			func(v int, out *DeviceResult) radio.Proc {
				return stepCounter{Proc(p, v == 0, "sparse", out), &steps}
			})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %d Step calls for %d events", c.name, steps, res.Events)
		if uint64(steps) > 2*res.Events {
			t.Errorf("%s: %d Step calls for %d events, want at most 2 per event", c.name, steps, res.Events)
		}
	}
}
