// Package cluster implements the layered communication machinery of
// Section 5: the Down-cast / All-cast / Up-cast sweeps over a good
// labeling, the Lemma 10 Broadcast given a labeling, and the
// "compute a new labeling L' from L" refinement step.
//
// All phases are built from SR-communication windows. A Spec fixes the
// model-appropriate SR-communication parameters so that every device
// derives the identical global slot layout from shared knowledge (n,
// Delta, model) — the paper's synchronization discipline.
package cluster

import (
	"repro/internal/radio"
	"repro/internal/srcomm"
)

// Spec selects and parameterizes the SR-communication realization for a
// model, giving each invocation a fixed window of Slots() slots.
type Spec struct {
	Model radio.Model
	Decay srcomm.DecayParams // No-CD realization (Lemma 7)
	CD    srcomm.CDParams    // CD realization (Lemma 8)
}

// NewSpec returns w.h.p. SR-communication parameters for an n-vertex
// network with maximum degree delta under the given model. For CD the
// Remark 9 pre-check is enabled, which is what makes the Lemma 10 energy
// O(d + log n) rather than O(d log n).
func NewSpec(model radio.Model, n, delta int) Spec {
	if delta < 1 {
		delta = 1
	}
	return Spec{
		Model: model,
		Decay: srcomm.DecayParams{Delta: delta, Phases: srcomm.DecayPhasesForFailure(n)},
		CD: srcomm.CDParams{Delta: delta, Epochs: srcomm.CDEpochsForFailure(n, delta),
			Precheck: true},
	}
}

// Slots returns the window length of one SR-communication invocation.
func (s Spec) Slots() uint64 {
	switch s.Model {
	case radio.Local:
		return 1
	case radio.CD, radio.CDStar:
		return s.CD.Slots()
	default:
		return s.Decay.Slots()
	}
}

// Broadcaster is the per-device state of the Lemma 10 Broadcast over a
// fixed good labeling. It is a radio.Proc armed in place: Arm it for a
// Broadcast, then Step it until it halts at the end of the Broadcast's
// BroadcastSlots window.
type Broadcaster struct {
	// SR is the shared SR-communication spec.
	SR Spec
	// Layers is the shared bound L on the number of layers.
	Layers int
	// Label is the device's layer L*(v).
	Label int
	// Has reports whether the device holds the message.
	Has bool
	// Msg is the message (valid when Has).
	Msg any

	cast caster // runs the armed Broadcast
}

// BroadcastSlots returns the total window length of Broadcast(d) with the
// given spec and layer bound.
func BroadcastSlots(sr Spec, layers, d int) uint64 {
	sweep := uint64(maxInt(layers-1, 0)) * sr.Slots()
	// Up-cast + d * (Down-cast, All-cast, Up-cast) + Down-cast.
	return sweep + uint64(d)*(2*sweep+sr.Slots()) + sweep
}

// Refiner is the per-device state of the "compute L' from L" step of
// Section 5. Labels use labeling.Bottom for the paper's ⊥. It is a
// radio.Proc armed in place: Arm it for a refinement, then Step it until
// it halts at the end of the refinement's RefineSlots window; re-armed,
// it runs the next refinement.
type Refiner struct {
	// SR is the shared SR-communication spec.
	SR Spec
	// Layers bounds the layer count of the old labeling (the paper
	// sweeps i = 0..n-2, i.e. Layers = n).
	Layers int
	// Old is the device's label under L.
	Old int
	// New is the device's label under L' (Bottom until assigned).
	New int

	root bool   // the Step 1 coin of the running refinement
	cast caster // runs the armed refinement
}

// RefineSlots returns the total window length of a refinement with
// parameter s.
func RefineSlots(sr Spec, layers, s int) uint64 {
	sweep := uint64(maxInt(layers-1, 0)) * sr.Slots()
	return uint64(s)*(2*sweep+sr.Slots()) + sweep
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
