package workload

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

// The tradeoff pin reduces every Measures field of fixed tradeoff
// trials to one line each: three graphs, every model, the default beta
// grid and two eps points, lean constants on and off, three seeds. A
// change to the workload, dtime or the engine must reproduce it byte
// for byte; regenerate only with -update-pin and a reviewed diff.
var updatePin = flag.Bool("update-pin", false, "rewrite testdata/tradeoff_pin.txt from the current implementation")

// measuresLine renders one trial: the error text, or every Measures
// field.
func measuresLine(m Measures, err error) string {
	if err != nil {
		return "err " + err.Error()
	}
	var extra strings.Builder
	for i, s := range m.Extra {
		if i > 0 {
			extra.WriteByte(',')
		}
		fmt.Fprintf(&extra, "%s=%v", s.Name, s.X)
	}
	return fmt.Sprintf("slots=%d events=%d maxE=%d totE=%d done=%v informed=%d extra=[%s] faults=%d/%d/%d",
		m.Slots, m.Events, m.MaxEnergy, m.TotalEnergy, m.Completed, m.Informed, extra.String(),
		m.FaultCrashes, m.FaultSleeps, m.FaultErasures)
}

func TestTradeoffPin(t *testing.T) {
	w, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	betas, err := w.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	epss, err := w.Expand(map[string]string{"eps": "0.5,1"})
	if err != nil {
		t.Fatal(err)
	}
	pts := append(betas, epss...)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"star:12", graph.Star(12)},
		{"grid:5", graph.Grid(5, 5)},
		{"gnp:16:seed=3", graph.GNP(16, 0.5, 3)},
	}
	var sb strings.Builder
	for _, gr := range graphs {
		for _, model := range []radio.Model{radio.CD, radio.NoCD, radio.Local} {
			for _, pt := range pts {
				for _, lean := range []bool{false, true} {
					for seed := uint64(1); seed <= 3; seed++ {
						m, err := w.Run(gr.g, pt, seed, Options{Model: model, Lean: lean})
						fmt.Fprintf(&sb, "%s %v %s lean=%v s%d: %s\n", gr.name, model, pt.Label, lean, seed, measuresLine(m, err))
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "tradeoff_pin.txt")
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
		t.Errorf("tradeoff pin diverged from the reference:\n got:\n%s\nwant:\n%s", sb.String(), want)
	}
}
