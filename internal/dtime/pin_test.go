package dtime

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
	// iters forces the partition iteration count. Iteration 0 always
	// runs at label bound 1, where every Lemma 17 sweep is empty, so
	// only the two-iteration scenarios exercise non-empty sweeps. iters
	// 0 keeps NewParamsBeta's count, which is 0 on a star (D = 2): the
	// run is the closing Lemma 10 Broadcast alone, at layer bound 1.
	scens := []struct {
		name  string
		g     *graph.Graph
		model radio.Model
		seed  uint64
		iters int
	}{
		{"nocd-path6", graph.Path(6), radio.NoCD, 3, 1},
		{"cd-gnp8", graph.GNP(8, 0.4, 2), radio.CD, 5, 1},
		{"local-grid24", graph.Grid(2, 4), radio.Local, 9, 1},
		{"nocd-path10-it2", graph.Path(10), radio.NoCD, 11, 2},
		{"cd-path12-it2", graph.Path(12), radio.CD, 13, 2},
		{"local-grid36-it2", graph.Grid(3, 6), radio.Local, 17, 2},
		{"cd-star64-it0", graph.Star(64), radio.CD, 19, 0},
		{"nocd-star16-it0", graph.Star(16), radio.NoCD, 23, 0},
		{"local-star32-it0", graph.Star(32), radio.Local, 29, 0},
	}
	var sb strings.Builder
	for _, sc := range scens {
		sb.WriteString(pinLine(t, sc.name, sc.g, sc.model, sc.seed, sc.iters, fault.Spec{}))
	}
	// The two-iteration scenarios again under each fault kind: Lemma 17
	// sweeps and partition epochs with devices that crash, sleep through
	// windows or lose deliveries.
	faults := []fault.Spec{{Kind: fault.Crash, Rate: 0.01},
		{Kind: fault.Sleep, Rate: 0.02, Window: 4}, {Kind: fault.Loss, Rate: 0.05}}
	for _, sc := range scens {
		if sc.iters != 2 {
			continue
		}
		for _, f := range faults {
			sb.WriteString(pinLine(t, sc.name+" "+f.Label(), sc.g, sc.model, sc.seed, sc.iters, f))
		}
	}
	// The other scenarios under the same faults: one partition iteration
	// at label bound 1 and the closing Broadcast alone (the star rows),
	// with faults landing in the iteration handover and in the
	// Broadcaster's windows.
	for _, sc := range scens {
		if sc.iters == 2 {
			continue
		}
		for _, f := range faults {
			sb.WriteString(pinLine(t, sc.name+" "+f.Label(), sc.g, sc.model, sc.seed, sc.iters, f))
		}
	}
	comparePin(t, sb.String())
}

// pinLine runs one pin scenario under fault f and renders its line. A
// faulted line also carries the fault counters.
func pinLine(t *testing.T, name string, g *graph.Graph, model radio.Model, seed uint64, iters int, f fault.Spec) string {
	t.Helper()
	n := g.N()
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParamsBeta(model, n, g.MaxDegree(), d, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	p = p.Tune(n, 4, 3, 2, iters)
	devs := make([]DeviceResult, n)
	h := fnv.New64a()
	pop := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		pop[v].Proc = Proc(p, v == 0, "pin", &devs[v])
	}
	res, err := radio.RunDevices(radio.Config{Graph: g, Model: p.SR.Model, Seed: seed,
		MaxSlots: 1 << 62, Fault: f,
		Trace: func(ev radio.Event) { fmt.Fprintln(h, evString(ev)) }}, pop)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	oh := fnv.New64a()
	for v, dres := range devs {
		fmt.Fprintf(oh, "%d %v %v %d %d\n", v, dres.Informed, dres.Msg, dres.Label, dres.Cluster)
	}
	line := fmt.Sprintf("%s events=%d trace=%016x out=%016x slots=%d maxE=%d totE=%d",
		name, res.Events, h.Sum64(), oh.Sum64(), res.Slots, res.MaxEnergy(), res.TotalEnergy())
	if f.Active() {
		line += fmt.Sprintf(" faults=%d/%d/%d", res.FaultCrashes, res.FaultSleeps, res.FaultErasures)
	}
	return line + "\n"
}
