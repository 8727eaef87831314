package partition

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
		name  string
		model radio.Model
		beta  float64
		seed  uint64
		g     *graph.Graph
	}{
		{"nocd-grid44", radio.NoCD, 0.5, 3, graph.Grid(4, 4)},
		{"cd-gnp12", radio.CD, 0.4, 7, graph.GNP(12, 0.3, 1)},
		{"local-path10", radio.Local, 0.5, 11, graph.Path(10)},
	}
	var sb strings.Builder
	for _, sc := range scens {
		sb.WriteString(pinLine(t, sc.name, sc.g, sc.model, sc.beta, sc.seed, fault.Spec{}))
	}
	// Every scenario again under each fault kind: epochs with devices
	// that crash, sleep through windows or lose deliveries.
	faults := []fault.Spec{{Kind: fault.Crash, Rate: 0.01},
		{Kind: fault.Sleep, Rate: 0.02, Window: 4}, {Kind: fault.Loss, Rate: 0.05}}
	for _, sc := range scens {
		for _, f := range faults {
			sb.WriteString(pinLine(t, sc.name+" "+f.Label(), sc.g, sc.model, sc.beta, sc.seed, f))
		}
	}
	comparePin(t, sb.String())
}

// pinLine runs one pin scenario under fault f and renders its line. A
// faulted line also carries the fault counters.
func pinLine(t *testing.T, name string, g *graph.Graph, model radio.Model, beta float64, seed uint64, f fault.Spec) string {
	t.Helper()
	p, err := NewParams(model, g.N(), g.MaxDegree(), beta)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	devs := make([]Result, n)
	h := fnv.New64a()
	pop := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		pop[v].Proc = Proc(p, 1, &devs[v])
	}
	res, err := radio.RunDevices(radio.Config{Graph: g, Model: p.SR.Model, Seed: seed, Fault: f,
		Trace: func(ev radio.Event) { fmt.Fprintln(h, evString(ev)) }}, pop)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	oh := fnv.New64a()
	for v, d := range devs {
		fmt.Fprintf(oh, "%d %d %d %v %d\n", v, d.Cluster, d.Layer, d.Delta, d.Start)
	}
	line := fmt.Sprintf("%s events=%d trace=%016x out=%016x slots=%d maxE=%d totE=%d",
		name, res.Events, h.Sum64(), oh.Sum64(), res.Slots, res.MaxEnergy(), res.TotalEnergy())
	if f.Active() {
		line += fmt.Sprintf(" faults=%d/%d/%d", res.FaultCrashes, res.FaultSleeps, res.FaultErasures)
	}
	return line + "\n"
}
