package dtime_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestSourceValidation checks that an out-of-range source is rejected.
// The protocol's Proc only learns whether its vertex is the source;
// core.Broadcast maps a source vertex onto the population and checks it.
func TestSourceValidation(t *testing.T) {
	g := graph.Star(8)
	for _, src := range []int{-1, 99} {
		if _, err := core.Broadcast(g, src, core.WithAlgorithm(core.AlgoDiamTime), core.WithLeanScale()); err == nil {
			t.Errorf("source %d accepted", src)
		}
	}
}
