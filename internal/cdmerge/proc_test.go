package cdmerge

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

// traceOf runs one device population and renders its event stream plus
// aggregate counters for byte-exact comparison.
func traceOf(t *testing.T, cfg radio.Config, devs []radio.Device) string {
	t.Helper()
	var sb strings.Builder
	cfg.Trace = func(ev radio.Event) {
		fmt.Fprintf(&sb, "%d %d %d %v %d\n", ev.Slot, ev.Dev, ev.Kind, ev.Payload, ev.From)
	}
	res, err := radio.RunDevices(cfg, devs)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "%d %d %v %v %v", res.Slots, res.Events, res.Energy, res.Transmits, res.Listens)
	return sb.String()
}

// TestProcTraceDeterministic pins the step machine's determinism: the
// same parameters and seed must produce the byte-identical slot-level
// event stream — including identical random draws for the colorings,
// the Active coins, and the nested SR machines — and identical
// per-device outcomes, run over run.
func TestProcTraceDeterministic(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(8), graph.Star(9), graph.GNP(12, 0.3, 1),
	}
	for _, g := range graphs {
		p := testParams(t, g, 0.5)
		n := g.N()
		for seed := uint64(0); seed < 2; seed++ {
			cfg := radio.Config{Graph: g, Model: radio.CD, Seed: seed, MaxSlots: 1 << 62}

			build := func(outs []DeviceResult) []radio.Device {
				devs := make([]radio.Device, n)
				for v := 0; v < n; v++ {
					devs[v].Proc = Proc(p, v == 0, "m20", &outs[v])
				}
				return devs
			}
			firstOuts := make([]DeviceResult, n)
			secondOuts := make([]DeviceResult, n)
			got := traceOf(t, cfg, build(firstOuts))
			again := traceOf(t, cfg, build(secondOuts))
			if got != again {
				t.Fatalf("%s seed %d: trace differs run over run", g.Name(), seed)
			}
			for v := range firstOuts {
				if firstOuts[v] != secondOuts[v] {
					t.Fatalf("%s seed %d: device %d outcome mismatch: %+v vs %+v",
						g.Name(), seed, v, firstOuts[v], secondOuts[v])
				}
			}
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

// TestPassesAreSparse checks that the Down and Up passes build only the
// steps a device acts in: a layer it sits out must cost no Step call,
// so the population steps at most twice per event.
func TestPassesAreSparse(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(12), graph.GNP(16, 0.3, 5)} {
		p := testParams(t, g, 0.5)
		steps := 0
		res, _, err := radio.Run(radio.Config{Graph: g, Model: radio.CD, Seed: 1, MaxSlots: 1 << 62},
			func(v int, out *DeviceResult) radio.Proc {
				return stepCounter{Proc(p, v == 0, "sparse", out), &steps}
			})
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		t.Logf("%s: %d Step calls for %d events", g.Name(), steps, res.Events)
		if uint64(steps) > 2*res.Events {
			t.Errorf("%s: %d Step calls for %d events, want at most 2 per event", g.Name(), steps, res.Events)
		}
	}
}
