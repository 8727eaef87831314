package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

// sameCoreResult compares every field a sweep observes.
func sameCoreResult(a, b *Result) error {
	if a.Algorithm != b.Algorithm || a.Model != b.Model {
		return fmt.Errorf("identity %v/%v vs %v/%v", a.Algorithm, a.Model, b.Algorithm, b.Model)
	}
	if a.Slots != b.Slots || a.Events != b.Events {
		return fmt.Errorf("slots/events %d/%d vs %d/%d", a.Slots, a.Events, b.Slots, b.Events)
	}
	for v := range a.Energy {
		if a.Energy[v] != b.Energy[v] {
			return fmt.Errorf("energy[%d] %d vs %d", v, a.Energy[v], b.Energy[v])
		}
		if a.Informed[v] != b.Informed[v] || a.InformedBy[v] != b.InformedBy[v] {
			return fmt.Errorf("informed[%d] differs", v)
		}
	}
	if len(a.Sources) != len(b.Sources) {
		return fmt.Errorf("sources %v vs %v", a.Sources, b.Sources)
	}
	return nil
}

// TestBroadcastBatchMatchesSolo pins BroadcastBatch's contract: result i
// equals Broadcast(WithSeed(seeds[i])) exactly, for every algorithm and
// for widths 1, 4, and 16 — sharing one plan across seeds never perturbs
// a trial.
func TestBroadcastBatchMatchesSolo(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		opts []Option
	}{
		{"iterclust-nocd", graph.GNP(14, 0.3, 2), nil},
		{"theorem12", graph.Star(10), []Option{WithModel(radio.CD), WithAlgorithm(AlgoTheorem12)}},
		{"dtime", graph.Star(10), []Option{WithModel(radio.CD), WithAlgorithm(AlgoDiamTime), WithLeanScale()}},
		{"cdmerge", graph.Path(8), []Option{WithAlgorithm(AlgoCDMerge), WithLeanScale()}},
		{"path", graph.Path(12), []Option{WithModel(radio.Local), WithAlgorithm(AlgoPath)}},
		{"bounded-degree", graph.Cycle(8), []Option{WithAlgorithm(AlgoBoundedDegree)}},
		{"det-cd", graph.Star(8), []Option{WithModel(radio.CD), WithAlgorithm(AlgoDeterministic)}},
		{"baseline", graph.Grid(3, 3), []Option{WithAlgorithm(AlgoBaselineDecay)}},
		{"multisource", graph.Path(10), []Option{WithSources(0, 9)}},
	}
	for _, c := range cases {
		for _, w := range []int{1, 4, 16} {
			if w == 16 && c.name != "iterclust-nocd" && c.name != "baseline" {
				continue // wide sweep on two algorithms keeps the test fast
			}
			seeds := make([]uint64, w)
			for i := range seeds {
				seeds[i] = uint64(7*i + 3)
			}
			var sims radio.SimCache
			opts := append(append([]Option(nil), c.opts...), WithSimCache(&sims))
			batch, errs, err := BroadcastBatch(c.g, 0, seeds, opts...)
			if err != nil {
				t.Fatalf("%s W=%d: %v", c.name, w, err)
			}
			for i, seed := range seeds {
				if errs[i] != nil {
					t.Fatalf("%s W=%d lane %d: %v", c.name, w, i, errs[i])
				}
				solo, soloErr := Broadcast(c.g, 0, append(append([]Option(nil), c.opts...), WithSeed(seed))...)
				if soloErr != nil {
					t.Fatalf("%s solo seed %d: %v", c.name, seed, soloErr)
				}
				if err := sameCoreResult(batch[i], solo); err != nil {
					t.Errorf("%s W=%d lane %d: batch != solo: %v", c.name, w, i, err)
				}
			}
		}
	}
}

// TestBroadcastBatchValidation checks the batch entry rejects exactly
// what Broadcast rejects, plus its own trace restriction.
func TestBroadcastBatchValidation(t *testing.T) {
	g := graph.Path(6)
	if _, _, err := BroadcastBatch(nil, 0, []uint64{1}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, _, err := BroadcastBatch(g, 99, []uint64{1}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, _, err := BroadcastBatch(g, 0, []uint64{1}, WithTrace(func(radio.Event) {})); err == nil {
		t.Error("WithTrace accepted by the batch path")
	}
	if _, _, err := BroadcastBatch(g, 0, []uint64{1}, WithEpsilon(2)); err == nil {
		t.Error("invalid eps accepted")
	}
	// Plan-level errors surface as the whole-batch error, matching the
	// solo error string.
	_, soloErr := Broadcast(graph.Cycle(6), 0, WithAlgorithm(AlgoPath))
	_, _, batchErr := BroadcastBatch(graph.Cycle(6), 0, []uint64{1}, WithAlgorithm(AlgoPath))
	if soloErr == nil || batchErr == nil || soloErr.Error() != batchErr.Error() {
		t.Errorf("plan error mismatch: solo %v, batch %v", soloErr, batchErr)
	}
	// Zero seeds is a valid empty batch.
	res, errs, err := BroadcastBatch(g, 0, nil)
	if err != nil || len(res) != 0 || len(errs) != 0 {
		t.Errorf("empty batch: %v %v %v", res, errs, err)
	}
}
