package coloring_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/radio"
)

// The port pin drives the Theorem 3 pipeline end to end — LearnDegree,
// TwoHopColoring, and the LOCAL-over-No-CD simulation wrapping the
// LOCAL iterative-clustering broadcast — through core.Broadcast, and
// reduces the physical event stream to digests generated from the
// pre-port blocking implementation. The ported step machines must
// reproduce them byte for byte; regenerate only with -update-pin and a
// reviewed diff.
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
		name    string
		g       *graph.Graph
		seed    uint64
		faulted bool // also pinned under each fault kind
	}{
		{"bounded-path6", graph.Path(6), 3, false},
		{"bounded-cycle8", graph.Cycle(8), 5, true},
		{"bounded-grid3x3", graph.Grid(3, 3), 7, false}, // Delta = 4
	}
	var sb strings.Builder
	for _, sc := range scens {
		sb.WriteString(pinLine(t, sc.name, sc.g, sc.seed, fault.Spec{}))
	}
	// Setup and simulation with devices that crash, sleep through their
	// slots or lose deliveries.
	faults := []fault.Spec{{Kind: fault.Crash, Rate: 0.01},
		{Kind: fault.Sleep, Rate: 0.02, Window: 4}, {Kind: fault.Loss, Rate: 0.05}}
	for _, sc := range scens {
		if !sc.faulted {
			continue
		}
		for _, f := range faults {
			sb.WriteString(pinLine(t, sc.name+" "+f.Label(), sc.g, sc.seed, f))
		}
	}
	comparePin(t, sb.String())
}

// pinLine runs one pin scenario under fault f and renders its line. A
// faulted line also carries the fault counters.
func pinLine(t *testing.T, name string, g *graph.Graph, seed uint64, f fault.Spec) string {
	t.Helper()
	h := fnv.New64a()
	res, err := core.Broadcast(g, 0,
		core.WithModel(radio.NoCD),
		core.WithAlgorithm(core.AlgoBoundedDegree),
		core.WithSeed(seed),
		core.WithFault(f),
		core.WithTrace(func(ev radio.Event) { fmt.Fprintln(h, evString(ev)) }))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	oh := fnv.New64a()
	for v, inf := range res.Informed {
		fmt.Fprintf(oh, "%d %v\n", v, inf)
	}
	line := fmt.Sprintf("%s events=%d trace=%016x out=%016x slots=%d maxE=%d totE=%d",
		name, res.Events, h.Sum64(), oh.Sum64(), res.Slots, res.MaxEnergy(), res.TotalEnergy())
	if f.Active() {
		line += fmt.Sprintf(" faults=%d/%d/%d", res.FaultCrashes, res.FaultSleeps, res.FaultErasures)
	}
	return line + "\n"
}
