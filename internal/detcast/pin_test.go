package detcast

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
// fixed scenarios to digests, in the iterclust, dtime and cdmerge pin
// format. The deterministic construction draws no randomness, so one
// seed per scenario suffices; any change to how its continuation chain
// is assembled must reproduce these lines byte for byte. Regenerate
// only with -update-pin and a reviewed diff.
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

func TestPortPin(t *testing.T) {
	scens := []struct {
		name    string
		g       *graph.Graph
		model   radio.Model
		source  int
		idSpace int
		ids     []int // nil: identity assignment
		faulted bool  // also pinned under each fault kind
	}{
		{"local-path8", graph.Path(8), radio.Local, 0, 8, nil, true},
		{"local-gnp10", graph.GNP(10, 0.35, 2), radio.Local, 3, 10, nil, false},
		{"local-path6-perm", graph.Path(6), radio.Local, 2, 8, []int{7, 3, 8, 1, 5, 2}, false},
		{"cd-path8", graph.Path(8), radio.CD, 0, 8, nil, false},
		{"cd-star8", graph.Star(8), radio.CD, 5, 8, nil, true},
		{"cd-gnp10", graph.GNP(10, 0.35, 2), radio.CD, 0, 10, nil, false},
		// Sparser graphs of 16 IDs: deeper trees, longer passes.
		{"local-gnp16", graph.GNP(16, 0.2, 3), radio.Local, 0, 16, nil, true},
		{"cd-gnp16", graph.GNP(16, 0.2, 3), radio.CD, 0, 16, nil, true},
		// CD ruling sets whose root IDs differ from the root indices: a
		// permuted and a sparse ID space, and a grid's many clusters.
		{"cd-path6-perm", graph.Path(6), radio.CD, 2, 8, []int{7, 3, 8, 1, 5, 2}, true},
		{"cd-gnp12-ids20", graph.GNP(12, 0.3, 5), radio.CD, 4, 20,
			[]int{20, 3, 17, 9, 1, 14, 6, 11, 19, 2, 8, 13}, true},
		{"cd-grid9", graph.Grid(3, 3), radio.CD, 4, 9, nil, true},
	}
	var sb strings.Builder
	for _, sc := range scens {
		sb.WriteString(pinLine(t, sc.name, sc.g, sc.model, sc.source, sc.idSpace, sc.ids, fault.Spec{}))
	}
	// Passes whose devices crash, sleep through their slots or lose
	// deliveries.
	faults := []fault.Spec{{Kind: fault.Crash, Rate: 0.01},
		{Kind: fault.Sleep, Rate: 0.02, Window: 4}, {Kind: fault.Loss, Rate: 0.05}}
	for _, sc := range scens {
		if !sc.faulted {
			continue
		}
		for _, f := range faults {
			sb.WriteString(pinLine(t, sc.name+" "+f.Label(), sc.g, sc.model, sc.source, sc.idSpace, sc.ids, f))
		}
	}
	path := filepath.Join("testdata", "port_pin.txt")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin file (generate with -update-pin): %v", err)
	}
	if sb.String() != string(want) {
		t.Errorf("port pin diverged from the reference:\n got:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// pinLine runs one pin scenario under fault f and renders its line. A
// faulted line also carries the fault counters.
func pinLine(t *testing.T, name string, g *graph.Graph, model radio.Model, source, idSpace int, ids []int, f fault.Spec) string {
	t.Helper()
	n := g.N()
	p, err := NewParams(model, n, idSpace)
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]DeviceResult, n)
	pop := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		pop[v].Proc = Proc(p, v == source, "pin", &devs[v])
	}
	h := fnv.New64a()
	res, err := radio.RunDevices(radio.Config{Graph: g, Model: model,
		IDSpace: idSpace, IDs: ids, MaxSlots: 1 << 62, Fault: f,
		Trace: func(ev radio.Event) { fmt.Fprintln(h, evString(ev)) }}, pop)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	oh := fnv.New64a()
	for v, d := range devs {
		fmt.Fprintf(oh, "%d %v %v %d %d %d\n", v, d.Informed, d.Msg, d.Label, d.Parent, d.Cluster)
	}
	line := fmt.Sprintf("%s events=%d trace=%016x out=%016x slots=%d maxE=%d totE=%d",
		name, res.Events, h.Sum64(), oh.Sum64(), res.Slots, res.MaxEnergy(), res.TotalEnergy())
	if f.Active() {
		line += fmt.Sprintf(" faults=%d/%d/%d", res.FaultCrashes, res.FaultSleeps, res.FaultErasures)
	}
	return line + "\n"
}
