package cdmerge

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
// fixed scenarios to digests, in the iterclust and dtime pin format.
// cdmerge's closing Lemma 10 Broadcast runs on the shared cluster
// continuations, so any change to those sweeps must reproduce these
// lines byte for byte; regenerate only with -update-pin and a reviewed
// diff.
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
		t.Errorf("port pin diverged from the reference:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestPortPin covers the graphs of TestProcTraceDeterministic at both of
// its seeds, and cd-path8 at seed 0 under each fault kind.
func TestPortPin(t *testing.T) {
	scens := []struct {
		name string
		g    *graph.Graph
	}{
		{"cd-path8", graph.Path(8)},
		{"cd-star9", graph.Star(9)},
		{"cd-gnp12", graph.GNP(12, 0.3, 1)},
	}
	var sb strings.Builder
	for _, sc := range scens {
		for seed := uint64(0); seed < 2; seed++ {
			sb.WriteString(pinLine(t, fmt.Sprintf("%s-s%d", sc.name, seed), sc.g, seed, fault.Spec{}))
		}
	}
	faults := []fault.Spec{{Kind: fault.Crash, Rate: 0.01},
		{Kind: fault.Sleep, Rate: 0.02, Window: 4}, {Kind: fault.Loss, Rate: 0.05}}
	for _, f := range faults {
		sb.WriteString(pinLine(t, "cd-path8-s0 "+f.Label(), graph.Path(8), 0, f))
	}
	comparePin(t, sb.String())
}

// pinLine runs one pin scenario under fault f and renders its line. A
// faulted line also carries the fault counters.
func pinLine(t *testing.T, name string, g *graph.Graph, seed uint64, f fault.Spec) string {
	t.Helper()
	p := testParams(t, g, 0.5)
	n := g.N()
	devs := make([]DeviceResult, n)
	h := fnv.New64a()
	pop := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		pop[v].Proc = Proc(p, v == 0, "pin", &devs[v])
	}
	res, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.CD, Seed: seed,
		MaxSlots: 1 << 62, Fault: f,
		Trace: func(ev radio.Event) { fmt.Fprintln(h, evString(ev)) }}, pop)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	oh := fnv.New64a()
	for v, d := range devs {
		fmt.Fprintf(oh, "%d %v %v %d %d\n", v, d.Informed, d.Msg, d.Label, d.Parent)
	}
	line := fmt.Sprintf("%s events=%d trace=%016x out=%016x slots=%d maxE=%d totE=%d",
		name, res.Events, h.Sum64(), oh.Sum64(), res.Slots, res.MaxEnergy(), res.TotalEnergy())
	if f.Active() {
		line += fmt.Sprintf(" faults=%d/%d/%d", res.FaultCrashes, res.FaultSleeps, res.FaultErasures)
	}
	return line + "\n"
}
