package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

// wantErr runs Broadcast and asserts the error mentions substr.
func wantErr(t *testing.T, substr string, g *graph.Graph, source int, opts ...Option) {
	t.Helper()
	_, err := Broadcast(g, source, opts...)
	if err == nil {
		t.Fatalf("want error containing %q, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("want error containing %q, got %v", substr, err)
	}
}

// TestOptionValidationEpsilon rejects out-of-range Theorem 12/16 eps
// values on every algorithm that consumes them — and also when the
// algorithm would ignore the knob, so a typo never silently runs with a
// default.
func TestOptionValidationEpsilon(t *testing.T) {
	g := graph.Star(8)
	for _, eps := range []float64{0, -0.25, 1.5} {
		wantErr(t, "eps", g, 0, WithEpsilon(eps), WithAlgorithm(AlgoDiamTime))
		wantErr(t, "eps", g, 0, WithEpsilon(eps), WithModel(radio.CD), WithAlgorithm(AlgoTheorem12))
		wantErr(t, "eps", g, 0, WithEpsilon(eps)) // AlgoAuto ignores eps; still rejected
	}
	// In-range values pass through to the algorithm.
	if _, err := Broadcast(g, 0, WithEpsilon(0.5), WithAlgorithm(AlgoDiamTime),
		WithLeanScale()); err != nil {
		t.Fatalf("eps=0.5: %v", err)
	}
}

// TestOptionValidationXi rejects out-of-range Theorem 20 xi values.
func TestOptionValidationXi(t *testing.T) {
	g := graph.Path(6)
	for _, xi := range []float64{0, -1, 2} {
		wantErr(t, "xi", g, 0, WithXi(xi), WithModel(radio.CD), WithAlgorithm(AlgoCDMerge))
		wantErr(t, "xi", g, 0, WithXi(xi)) // ignored knob, still rejected
	}
	if _, err := Broadcast(g, 0, WithXi(0.5), WithModel(radio.CD),
		WithAlgorithm(AlgoCDMerge), WithLeanScale()); err != nil {
		t.Fatalf("xi=0.5: %v", err)
	}
}

// TestOptionValidationSources covers the WithSources error paths: the
// single-source-only algorithms reject k >= 2, and malformed source
// sets are rejected for every algorithm.
func TestOptionValidationSources(t *testing.T) {
	p := graph.Path(8)
	// Path algorithm and the deterministic constructions are inherently
	// single-source.
	wantErr(t, "does not support multiple sources", p, 0,
		WithSources(0, 7), WithModel(radio.Local), WithAlgorithm(AlgoPath))
	wantErr(t, "does not support multiple sources", p, 0,
		WithSources(0, 7), WithModel(radio.CD), WithAlgorithm(AlgoDeterministic))
	// Malformed source sets.
	wantErr(t, "out of range", p, 0, WithSources(0, 8))
	wantErr(t, "out of range", p, 0, WithSources(-1))
	wantErr(t, "duplicate source", p, 0, WithSources(3, 3))
	// A single WithSources entry is equivalent to the positional form.
	r1, err := Broadcast(p, 0, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Broadcast(p, 5, WithSources(0), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Slots != r2.Slots || r1.MaxEnergy() != r2.MaxEnergy() {
		t.Fatalf("WithSources(0) diverges from positional source: %+v vs %+v", r1, r2)
	}
}

// TestOptionValidationGraphs covers the graph error paths: nil, empty,
// and disconnected inputs fail fast for both single- and multi-source
// calls.
func TestOptionValidationGraphs(t *testing.T) {
	if _, err := Broadcast(nil, 0); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Broadcast(graph.New(0), 0); err == nil {
		t.Fatal("empty graph accepted")
	}
	disc := graph.New(4)
	disc.AddEdge(0, 1) // 2-3 unreachable
	wantErr(t, "disconnected", disc, 0)
	wantErr(t, "disconnected", disc, 0, WithSources(0, 2))
	// Positional source out of range.
	wantErr(t, "out of range", graph.Path(4), 9)
}

// TestOptionValidationModel rejects a model set with WithModel that an
// algorithm tied to one model does not run, naming both models, and
// keeps the call without WithModel (and with the matching model)
// running that algorithm's own model.
func TestOptionValidationModel(t *testing.T) {
	models := []radio.Model{radio.NoCD, radio.CD, radio.CDStar, radio.Local}
	cases := []struct {
		algo Algorithm
		g    *graph.Graph
		runs radio.Model
	}{
		{AlgoCDMerge, graph.Path(6), radio.CD},
		{AlgoPath, graph.Path(6), radio.Local},
		{AlgoBoundedDegree, graph.Cycle(6), radio.NoCD},
	}
	for _, c := range cases {
		for _, m := range models {
			if m == c.runs {
				continue
			}
			wantErr(t, fmt.Sprintf("runs the %v model, not %v", c.runs, m), c.g, 0,
				WithModel(m), WithAlgorithm(c.algo), WithLeanScale())
		}
		for _, opts := range [][]Option{nil, {WithModel(c.runs)}} {
			res, err := Broadcast(c.g, 0, append(opts, WithAlgorithm(c.algo), WithLeanScale())...)
			if err != nil {
				t.Fatalf("%v with %d options: %v", c.algo, len(opts), err)
			}
			if res.Model != c.runs || !res.AllInformed() {
				t.Errorf("%v: ran %v, informed all %v; want %v and true", c.algo, res.Model, res.AllInformed(), c.runs)
			}
		}
	}
}
