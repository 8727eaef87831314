package pathcast

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// broadcast runs Algorithm 1 on the path g from source, one Proc per
// vertex, under the radio.Config core's planner gives it.
func broadcast(t *testing.T, g *graph.Graph, source int, body any, p Params, seed uint64, trace func(radio.Event)) (*radio.Result, []DeviceResult) {
	t.Helper()
	res, devs, err := radio.Run(radio.Config{Graph: g, Model: radio.Local, Seed: seed, Trace: trace},
		func(v int, out *DeviceResult) radio.Proc { return Proc(p, g.Neighbors(v), v == source, body, out) })
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	return res, devs
}

func TestBroadcastInformsAll(t *testing.T) {
	for _, n := range []int{2, 3, 8, 16, 33, 64} {
		for seed := uint64(0); seed < 5; seed++ {
			g := graph.Path(n)
			_, devs := broadcast(t, g, 0, "payload", Params{}, seed, nil)
			for v, d := range devs {
				if !d.Informed || d.Body != "payload" {
					t.Fatalf("n=%d seed=%d: vertex %d body %v (informed %v)", n, seed, v, d.Body, d.Informed)
				}
			}
		}
	}
}

func TestBroadcastFromMiddle(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := graph.Path(21)
		_, devs := broadcast(t, g, 10, 42, Params{}, seed, nil)
		for v, d := range devs {
			if !d.Informed {
				t.Fatalf("seed %d: middle-source broadcast left vertex %d uninformed", seed, v)
			}
		}
	}
}

func TestBroadcastFromFarEnd(t *testing.T) {
	g := graph.Path(16)
	_, devs := broadcast(t, g, 15, "m", Params{}, 3, nil)
	for v, d := range devs {
		if !d.Informed {
			t.Fatalf("far-end-source broadcast left vertex %d uninformed", v)
		}
	}
}

func TestWorstCaseTimeBound(t *testing.T) {
	// Theorem 21: worst-case running time 2n (with n rounded to a power
	// of two). Check delivery slots across many seeds.
	for _, n := range []int{8, 16, 31, 64} {
		bound := 2 * uint64(rng.NextPow2(n))
		for seed := uint64(0); seed < 10; seed++ {
			g := graph.Path(n)
			_, devs := broadcast(t, g, 0, "m", Params{}, seed, nil)
			if got := MaxReceiveSlot(devs); got > bound {
				t.Errorf("n=%d seed=%d: delivery at slot %d > 2n'=%d", n, seed, got, bound)
			}
		}
	}
}

func TestExpectedEnergyLogarithmic(t *testing.T) {
	// Theorem 21: expected per-vertex energy O(log n). Compare mean
	// energy at n=16 and n=256: growth must be way below the 16x of a
	// linear-energy protocol.
	meanEnergy := func(n int) float64 {
		total := 0
		const runs = 10
		for seed := uint64(0); seed < runs; seed++ {
			g := graph.Path(n)
			res, devs := broadcast(t, g, 0, "m", Params{}, seed, nil)
			for v, d := range devs {
				if !d.Informed {
					t.Fatalf("n=%d: vertex %d uninformed", n, v)
				}
			}
			total += res.TotalEnergy() / n
		}
		return float64(total) / runs
	}
	e16 := meanEnergy(16)
	e256 := meanEnergy(256)
	if ratio := e256 / e16; ratio > 4 {
		t.Errorf("mean energy grew %.1fx from n=16 (%.1f) to n=256 (%.1f); want ~2x (log growth)",
			ratio, e16, e256)
	}
}

func TestEnergyFarBelowTime(t *testing.T) {
	// The whole point: devices sleep through nearly the entire run.
	g := graph.Path(128)
	res, devs := broadcast(t, g, 0, "m", Params{}, 1, nil)
	for v, d := range devs {
		if !d.Informed {
			t.Fatalf("vertex %d uninformed", v)
		}
	}
	if maxE := res.MaxEnergy(); uint64(maxE) > res.Slots/2 {
		t.Errorf("max energy %d vs %d slots: not energy-efficient", maxE, res.Slots)
	}
}

func TestBlockingTimesRecorded(t *testing.T) {
	g := graph.Path(8)
	_, devs := broadcast(t, g, 0, "m", Params{}, 2, nil)
	for v, d := range devs {
		if v == 0 {
			continue // source has no instances
		}
		want := 1 // end vertex: one sending instance
		if g.Degree(v) == 2 {
			want = 2
		}
		if len(d.BlockingTimes) != want {
			t.Errorf("vertex %d: %d blocking times, want %d", v, len(d.BlockingTimes), want)
		}
		for _, b := range d.BlockingTimes {
			if b < 2 || b > uint64(rng.NextPow2(8)) {
				t.Errorf("vertex %d: blocking time %d out of range", v, b)
			}
		}
	}
}

func TestRejectsNonPaths(t *testing.T) {
	if err := Validate(graph.Cycle(6), 0); err == nil {
		t.Error("cycle accepted")
	}
	if err := Validate(graph.Star(5), 0); err == nil {
		t.Error("star accepted")
	}
	disconnected := graph.New(4)
	if err := disconnected.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := disconnected.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := Validate(disconnected, 0); err == nil {
		t.Error("disconnected graph accepted")
	}
	if err := Validate(graph.Path(4), 9); err == nil {
		t.Error("out-of-range source accepted")
	}
	if err := Validate(graph.New(0), 0); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestSingleVertex(t *testing.T) {
	g := graph.New(1)
	if err := Validate(g, 0); err != nil {
		t.Fatal(err)
	}
	if _, devs := broadcast(t, g, 0, "solo", Params{}, 0, nil); !devs[0].Informed {
		t.Error("lone source not informed")
	}
}

func TestTraceProducesTimeline(t *testing.T) {
	g := graph.Path(8)
	var events []radio.Event
	_, devs := broadcast(t, g, 0, "m", Params{}, 4, func(ev radio.Event) {
		events = append(events, ev)
	})
	for v, d := range devs {
		if !d.Informed {
			t.Fatalf("vertex %d uninformed", v)
		}
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	// Slot 1 must contain transmissions from every non-source vertex plus
	// the source payload.
	tx1 := map[int]bool{}
	for _, ev := range events {
		if ev.Slot == 1 && ev.Kind == radio.EventTransmit {
			tx1[ev.Dev] = true
		}
	}
	if len(tx1) != 8 {
		t.Errorf("slot-1 transmitters = %d, want all 8", len(tx1))
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := graph.Path(32)
	a, aDevs := broadcast(t, g, 0, "m", Params{}, 9, nil)
	b, bDevs := broadcast(t, g, 0, "m", Params{}, 9, nil)
	if a.Slots != b.Slots || a.Events != b.Events {
		t.Error("same seed diverged")
	}
	if MaxReceiveSlot(aDevs) != MaxReceiveSlot(bDevs) {
		t.Error("delivery schedule diverged")
	}
}

func TestMessageAdvancesOneHopPerSlotWhenUnblocked(t *testing.T) {
	// With all blocking times at their minimum (2), the payload reaches
	// vertex i no earlier than slot i (it cannot teleport) — a basic
	// sanity check on slot accounting.
	g := graph.Path(12)
	_, devs := broadcast(t, g, 0, "m", Params{}, 5, nil)
	for v := 1; v < 12; v++ {
		if got := devs[v].ReceivedAt; got != 0 && got < uint64(v) {
			t.Errorf("vertex %d received at slot %d < distance %d", v, got, v)
		}
	}
}

func TestHorizonOverride(t *testing.T) {
	// A tiny horizon cannot crash the protocol; it only truncates it.
	g := graph.Path(16)
	_, devs := broadcast(t, g, 0, "m", Params{Horizon: 4}, 1, nil)
	// Close vertices may be informed; far ones cannot be.
	if devs[15].Informed {
		t.Error("vertex 15 informed within 4 slots")
	}
}
