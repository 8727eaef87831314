package iterclust

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/radio"
)

// The port pin reduces the full event stream and per-device outcomes of
// fixed scenarios to digests generated from the pre-port blocking
// implementation. The ported step machines must reproduce them byte for
// byte; regenerate only with -update-pin and a reviewed diff.
var updatePin = flag.Bool("update-pin", false, "rewrite testdata/port_pin.txt from the current implementation")

func evString(ev radio.Event) string {
	kind := "?"
	switch ev.Kind {
	case radio.EventTransmit:
		kind = "tx"
	case radio.EventReceive:
		kind = "rx"
	case radio.EventSilence:
		kind = "sil"
	case radio.EventNoise:
		kind = "noise"
	}
	return fmt.Sprintf("%d %d %s %v %d", ev.Slot, ev.Dev, kind, ev.Payload, ev.From)
}

func comparePin(t *testing.T, got string) {
	t.Helper()
	path := filepath.Join("testdata", "port_pin.txt")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin file (generate with -update-pin): %v", err)
	}
	if got != string(want) {
		t.Errorf("port pin diverged from the pre-port reference:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestPortPin(t *testing.T) {
	scens := []struct {
		name string
		g    *graph.Graph
		p    func(g *graph.Graph) Params
		seed uint64
	}{
		{"nocd-path8", graph.Path(8), func(g *graph.Graph) Params {
			p := NewParams(radio.NoCD, g.N(), g.MaxDegree())
			p.Iterations = 4
			return p
		}, 3},
		{"cd-thm12-gnp10", graph.GNP(10, 0.3, 2), func(g *graph.Graph) Params {
			p := NewTheorem12Params(g.N(), g.MaxDegree(), 0.5)
			p.Iterations = 4
			return p
		}, 5},
		{"local-cycle9", graph.Cycle(9), func(g *graph.Graph) Params {
			p := NewParams(radio.Local, g.N(), g.MaxDegree())
			p.Iterations = 4
			return p
		}, 7},
	}
	var sb strings.Builder
	for _, sc := range scens {
		sb.WriteString(pinLine(t, sc.name, sc.g, sc.p(sc.g), sc.seed, fault.Spec{}))
	}
	// The same scenarios under each fault kind: refinements and the
	// closing Broadcast with devices that crash, sleep through windows or
	// lose deliveries.
	faults := []fault.Spec{{Kind: fault.Crash, Rate: 0.01},
		{Kind: fault.Sleep, Rate: 0.02, Window: 4}, {Kind: fault.Loss, Rate: 0.05}}
	for _, sc := range scens {
		for _, f := range faults {
			sb.WriteString(pinLine(t, sc.name+" "+f.Label(), sc.g, sc.p(sc.g), sc.seed, f))
		}
	}
	comparePin(t, sb.String())
}

// pinLine runs one pin scenario under fault f and renders its line. A
// faulted line also carries the fault counters.
func pinLine(t *testing.T, name string, g *graph.Graph, p Params, seed uint64, f fault.Spec) string {
	t.Helper()
	n := g.N()
	devs := make([]DeviceResult, n)
	h := fnv.New64a()
	pop := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		pop[v].Proc = Proc(p, v == 0, "pin", &devs[v])
	}
	res, err := radio.RunDevices(radio.Config{Graph: g, Model: p.Model, Seed: seed,
		MaxSlots: 1 << 62, Fault: f,
		Trace: func(ev radio.Event) { fmt.Fprintln(h, evString(ev)) }}, pop)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	oh := fnv.New64a()
	for v, d := range devs {
		fmt.Fprintf(oh, "%d %v %v %d\n", v, d.Informed, d.Msg, d.Label)
	}
	line := fmt.Sprintf("%s events=%d trace=%016x out=%016x slots=%d maxE=%d totE=%d",
		name, res.Events, h.Sum64(), oh.Sum64(), res.Slots, res.MaxEnergy(), res.TotalEnergy())
	if f.Active() {
		line += fmt.Sprintf(" faults=%d/%d/%d", res.FaultCrashes, res.FaultSleeps, res.FaultErasures)
	}
	return line + "\n"
}
