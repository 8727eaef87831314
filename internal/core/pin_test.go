package core

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

// The plan pin reduces every Result field of fixed Broadcast calls to
// one line each: every algorithm under each model it supports, four
// source sets, three seeds, with no fault and with crash, sleep and
// loss faults. A planner or engine change must reproduce it byte for
// byte; regenerate only with -update-pin and a reviewed diff.
var updatePin = flag.Bool("update-pin", false, "rewrite testdata/plan_pin.txt from the current implementation")

// pinLine renders one Broadcast outcome: the error text, or the scalar
// fields in clear plus a digest of every slice field.
func pinLine(res *Result, err error) string {
	if err != nil {
		return "err " + err.Error()
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%v|%v", res.Energy, res.Informed, res.Sources, res.InformedBy)
	return fmt.Sprintf("algo=%v model=%v slots=%d events=%d maxE=%d totE=%d fronts=%v faults=%d/%d/%d digest=%016x",
		res.Algorithm, res.Model, res.Slots, res.Events, res.MaxEnergy(), res.TotalEnergy(),
		res.Fronts(), res.FaultCrashes, res.FaultSleeps, res.FaultErasures, h.Sum64())
}

func TestPlanPin(t *testing.T) {
	algos := []struct {
		name string
		g    *graph.Graph
		opts []Option
	}{
		{"iterclust-nocd", graph.GNP(10, 0.4, 1), []Option{WithAlgorithm(AlgoIterClust)}},
		{"iterclust-cd", graph.GNP(10, 0.4, 1), []Option{WithModel(radio.CD), WithAlgorithm(AlgoIterClust)}},
		{"iterclust-local", graph.Cycle(9), []Option{WithModel(radio.Local), WithAlgorithm(AlgoIterClust)}},
		{"theorem12", graph.Star(9), []Option{WithModel(radio.CD), WithAlgorithm(AlgoTheorem12)}},
		{"dtime-nocd", graph.Star(9), []Option{WithAlgorithm(AlgoDiamTime), WithLeanScale()}},
		{"dtime-cd", graph.Star(9), []Option{WithModel(radio.CD), WithAlgorithm(AlgoDiamTime), WithLeanScale()}},
		{"cdmerge", graph.Path(8), []Option{WithAlgorithm(AlgoCDMerge), WithLeanScale()}},
		{"path", graph.Path(10), []Option{WithModel(radio.Local), WithAlgorithm(AlgoPath)}},
		{"bounded-degree", graph.Cycle(8), []Option{WithAlgorithm(AlgoBoundedDegree)}},
		{"det-cd", graph.Star(8), []Option{WithModel(radio.CD), WithAlgorithm(AlgoDeterministic)}},
		{"det-local", graph.Path(8), []Option{WithModel(radio.Local), WithAlgorithm(AlgoDeterministic)}},
		{"baseline-nocd", graph.Grid(3, 3), []Option{WithAlgorithm(AlgoBaselineDecay)}},
		{"baseline-cd", graph.Grid(3, 3), []Option{WithModel(radio.CD), WithAlgorithm(AlgoBaselineDecay)}},
	}
	faults := []fault.Spec{{}, {Kind: fault.Crash, Rate: 0.01},
		{Kind: fault.Sleep, Rate: 0.02, Window: 4}, {Kind: fault.Loss, Rate: 0.05}}
	var sb strings.Builder
	for _, a := range algos {
		n := a.g.N()
		// The positional source sits mid-graph; WithSources(0) overrides
		// a different positional argument; the three-source set is out
		// of vertex order so attribution follows the option's order.
		sets := []struct {
			name string
			src  int
			opts []Option
		}{
			{"pos", n / 2, nil},
			{"src1", n - 1, []Option{WithSources(0)}},
			{"src2", 0, []Option{WithSources(0, n-1)}},
			{"src3", 0, []Option{WithSources(n-1, 0, n/2)}},
		}
		for _, s := range sets {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, f := range faults {
					opts := append(append([]Option{WithSeed(seed), WithFault(f)}, a.opts...), s.opts...)
					res, err := Broadcast(a.g, s.src, opts...)
					label := f.Label()
					if label == "" {
						label = "none"
					}
					fmt.Fprintf(&sb, "%s %s s%d %s: %s\n", a.name, s.name, seed, label, pinLine(res, err))
				}
			}
		}
	}
	path := filepath.Join("testdata", "plan_pin.txt")
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
		t.Errorf("plan pin diverged from the reference:\n got:\n%s\nwant:\n%s", sb.String(), want)
	}
}
