package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

func TestDefaultBroadcast(t *testing.T) {
	g := graph.GNP(20, 0.25, 1)
	res, err := Broadcast(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed() {
		t.Error("default broadcast incomplete")
	}
	if res.Algorithm != AlgoIterClust || res.Model != radio.NoCD {
		t.Errorf("default selection = %v/%v", res.Algorithm, res.Model)
	}
	if res.Slots == 0 || res.MaxEnergy() == 0 {
		t.Error("empty measurements")
	}
}

func TestAutoSelectsPathAlgorithm(t *testing.T) {
	g := graph.Path(16)
	res, err := Broadcast(g, 0, WithModel(radio.Local))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgoPath {
		t.Errorf("auto on a LOCAL path chose %v", res.Algorithm)
	}
	if !res.AllInformed() {
		t.Error("incomplete")
	}
}

func TestAutoSelectsTheorem12ForCD(t *testing.T) {
	g := graph.Star(12)
	res, err := Broadcast(g, 0, WithModel(radio.CD))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgoTheorem12 {
		t.Errorf("auto on CD chose %v", res.Algorithm)
	}
	if !res.AllInformed() {
		t.Error("incomplete")
	}
}

func TestEveryAlgorithmRuns(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		opts []Option
	}{
		{"iterclust-local", graph.GNP(16, 0.3, 2), []Option{WithModel(radio.Local), WithAlgorithm(AlgoIterClust)}},
		{"iterclust-nocd", graph.Path(10), []Option{WithAlgorithm(AlgoIterClust)}},
		{"theorem12", graph.GNP(16, 0.3, 3), []Option{WithModel(radio.CD), WithAlgorithm(AlgoTheorem12)}},
		{"dtime", graph.Star(12), []Option{WithModel(radio.CD), WithAlgorithm(AlgoDiamTime), WithLeanScale()}},
		{"cdmerge", graph.Path(8), []Option{WithAlgorithm(AlgoCDMerge), WithLeanScale()}},
		{"path", graph.Path(12), []Option{WithAlgorithm(AlgoPath)}},
		{"bounded-degree", graph.Cycle(10), []Option{WithAlgorithm(AlgoBoundedDegree)}},
		{"det-local", graph.Path(8), []Option{WithModel(radio.Local), WithAlgorithm(AlgoDeterministic)}},
		{"det-cd", graph.Star(8), []Option{WithModel(radio.CD), WithAlgorithm(AlgoDeterministic)}},
		{"baseline", graph.Grid(3, 4), []Option{WithAlgorithm(AlgoBaselineDecay)}},
	}
	for _, c := range cases {
		ok := false
		for seed := uint64(1); seed <= 3 && !ok; seed++ {
			res, err := Broadcast(c.g, 0, append(c.opts, WithSeed(seed), WithMessage(c.name))...)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			ok = res.AllInformed()
		}
		if !ok {
			t.Errorf("%s: broadcast never completed over 3 seeds", c.name)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Broadcast(nil, 0); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Broadcast(graph.New(0), 0); err == nil {
		t.Error("empty graph accepted")
	}
	disc := graph.New(3)
	if err := disc.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Broadcast(disc, 0); err == nil {
		t.Error("disconnected graph accepted")
	}
	if _, err := Broadcast(graph.Path(4), 9); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := Broadcast(graph.Path(4), 0, WithAlgorithm(AlgoDeterministic)); err == nil {
		t.Error("deterministic No-CD accepted")
	}
	if _, err := Broadcast(graph.Path(4), 0, WithAlgorithm(AlgoTheorem12)); err == nil {
		t.Error("Theorem 12 outside CD accepted")
	}
	if _, err := Broadcast(graph.Star(4), 0, WithModel(radio.Local), WithAlgorithm(AlgoPath)); err == nil {
		t.Error("path algorithm on a star accepted")
	}
	if _, err := Broadcast(graph.Path(4), 0, WithAlgorithm(Algorithm(99))); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestEnergyComparisonAgainstBaseline(t *testing.T) {
	// The repo's headline claim: on a long path, the paper's algorithms
	// use far less max energy than the decay baseline.
	g := graph.Path(64)
	eff, err := Broadcast(g, 0, WithModel(radio.Local), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Broadcast(g, 0, WithAlgorithm(AlgoBaselineDecay), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !eff.AllInformed() || !base.AllInformed() {
		t.Fatal("incomplete broadcast")
	}
	if eff.MaxEnergy() >= base.MaxEnergy() {
		t.Errorf("path algorithm energy %d !< baseline energy %d",
			eff.MaxEnergy(), base.MaxEnergy())
	}
}

func TestAlgorithmStrings(t *testing.T) {
	algos := []Algorithm{AlgoAuto, AlgoIterClust, AlgoTheorem12, AlgoDiamTime,
		AlgoCDMerge, AlgoPath, AlgoBoundedDegree, AlgoDeterministic, AlgoBaselineDecay}
	seen := map[string]bool{}
	for _, a := range algos {
		s := a.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate name %q", s)
		}
		seen[s] = true
	}
	if !strings.Contains(Algorithm(42).String(), "42") {
		t.Error("unknown algorithm should stringify with its value")
	}
}

func TestIsPath(t *testing.T) {
	if !IsPath(graph.Path(5)) || !IsPath(graph.New(1)) {
		t.Error("paths not recognized")
	}
	if IsPath(graph.Cycle(5)) || IsPath(graph.Star(4)) || IsPath(graph.New(0)) {
		t.Error("non-paths recognized as paths")
	}
}

func TestTraceOption(t *testing.T) {
	g := graph.Path(8)
	events := 0
	_, err := Broadcast(g, 0, WithModel(radio.Local), WithTrace(func(radio.Event) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("no trace events delivered")
	}
}

// TestTraceReachesEveryAlgorithm requires every algorithm to deliver its
// events to a single-source WithTrace sink, and the traced run to
// measure exactly what the untraced run measures.
func TestTraceReachesEveryAlgorithm(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		opts []Option
	}{
		{"iterclust", graph.GNP(12, 0.4, 3), []Option{WithAlgorithm(AlgoIterClust)}},
		{"theorem12", graph.Star(9), []Option{WithModel(radio.CD), WithAlgorithm(AlgoTheorem12)}},
		{"dtime", graph.Star(9), []Option{WithModel(radio.CD), WithAlgorithm(AlgoDiamTime), WithLeanScale()}},
		{"cdmerge", graph.Path(8), []Option{WithAlgorithm(AlgoCDMerge), WithLeanScale()}},
		{"path", graph.Path(10), []Option{WithModel(radio.Local), WithAlgorithm(AlgoPath)}},
		{"bounded-degree", graph.Cycle(8), []Option{WithAlgorithm(AlgoBoundedDegree)}},
		{"deterministic", graph.Star(8), []Option{WithModel(radio.CD), WithAlgorithm(AlgoDeterministic)}},
		{"baseline-decay", graph.Grid(3, 3), []Option{WithAlgorithm(AlgoBaselineDecay)}},
	}
	for _, c := range cases {
		plain, err := Broadcast(c.g, 0, append(c.opts, WithSeed(4))...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var events uint64
		traced, err := Broadcast(c.g, 0, append(c.opts, WithSeed(4),
			WithTrace(func(radio.Event) { events++ }))...)
		if err != nil {
			t.Fatalf("%s traced: %v", c.name, err)
		}
		if events == 0 {
			t.Errorf("%s: no trace events delivered", c.name)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: traced run diverged:\n%+v\nvs untraced\n%+v", c.name, traced, plain)
		}
	}
}

func TestResultAggregates(t *testing.T) {
	r := &Result{Energy: []int{1, 5, 2}, Informed: []bool{true, true, true}}
	if r.MaxEnergy() != 5 || r.TotalEnergy() != 8 {
		t.Error("aggregates wrong")
	}
	r.Informed[1] = false
	if r.AllInformed() {
		t.Error("AllInformed wrong")
	}
}

func TestMultiSourceBroadcast(t *testing.T) {
	g := graph.Path(16)
	res, err := Broadcast(g, 0, WithSources(0, 15), WithModel(radio.Local), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed() {
		t.Fatal("2-source broadcast did not complete")
	}
	if len(res.Sources) != 2 || res.Sources[0] != 0 || res.Sources[1] != 15 {
		t.Errorf("Sources = %v", res.Sources)
	}
	if res.InformedBy[0] != 0 || res.InformedBy[15] != 1 {
		t.Errorf("sources not attributed to themselves: %v", res.InformedBy)
	}
	fronts := res.Fronts()
	total := 0
	for i, f := range fronts {
		if f == 0 {
			t.Errorf("source %d has an empty front", i)
		}
		total += f
	}
	if total > g.N() {
		t.Errorf("fronts %v exceed n=%d", fronts, g.N())
	}
	for v, src := range res.InformedBy {
		if res.Informed[v] && (src < 0 || src >= len(res.Sources)) {
			t.Errorf("vertex %d informed but attributed to %d", v, src)
		}
	}
}

func TestSingleSourceHasTrivialAttribution(t *testing.T) {
	g := graph.Star(8)
	res, err := Broadcast(g, 0, WithModel(radio.Local), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sources) != 1 || res.Sources[0] != 0 {
		t.Errorf("Sources = %v", res.Sources)
	}
	for v, src := range res.InformedBy {
		want := -1
		if res.Informed[v] {
			want = 0
		}
		if src != want {
			t.Errorf("InformedBy[%d] = %d, want %d", v, src, want)
		}
	}
}

func TestMultiSourceValidation(t *testing.T) {
	g := graph.Path(8)
	if _, err := Broadcast(g, 0, WithSources(0, 0)); err == nil {
		t.Error("duplicate sources accepted")
	}
	if _, err := Broadcast(g, 0, WithSources(0, 99)); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := Broadcast(g, 0, WithSources(0, 7), WithAlgorithm(AlgoPath), WithModel(radio.Local)); err == nil {
		t.Error("multi-source path algorithm accepted")
	}
	if _, err := Broadcast(g, 0, WithSources(0, 7), WithAlgorithm(AlgoDeterministic), WithModel(radio.CD)); err == nil {
		t.Error("multi-source deterministic algorithm accepted")
	}
	// Auto on a LOCAL path must avoid the single-source path algorithm.
	res, err := Broadcast(g, 0, WithSources(0, 7), WithModel(radio.Local), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm == AlgoPath {
		t.Error("auto picked the path algorithm for a multi-source run")
	}
}
