package detcast_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// TestSourceValidation checks that an out-of-range source is rejected.
// The protocol's Proc only learns whether its vertex is the source;
// core.Broadcast maps a source vertex onto the population and checks it.
func TestSourceValidation(t *testing.T) {
	g := graph.Path(4)
	for _, src := range []int{-1, 4} {
		if _, err := core.Broadcast(g, src, core.WithModel(radio.Local), core.WithAlgorithm(core.AlgoDeterministic)); err == nil {
			t.Errorf("source %d accepted", src)
		}
	}
}
