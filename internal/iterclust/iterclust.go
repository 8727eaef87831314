// Package iterclust implements the randomized iterative-clustering
// Broadcast algorithms of Section 5 of the paper:
//
//   - Theorem 11 (LOCAL, CD, No-CD): O(log n) refinement iterations with
//     p = 1/2 and s = 1 shrink the good labeling to a single root w.h.p.,
//     then the Lemma 10 Broadcast runs with d = 0. Time O(n log D log^2 n)
//     and energy O(log D log^2 n) in No-CD; O(n log n) time and O(log n)
//     energy in LOCAL; O(log^2 n) energy in CD (via the Remark 9
//     pre-check).
//   - Theorem 12 (CD): p = log^{-eps/2} n and s = log n reach at most
//     log n roots in O(log n / (eps log log n)) iterations, then Lemma 10
//     runs with d = log n, trading a log^eps n factor of time for an
//     eps log log n factor of energy.
//
// Every device executes the same slot layout derived from (n, Delta,
// model, parameters); no global coordinator exists. A device is one flat
// step machine that re-arms one cluster.Refiner for every refinement and
// then arms one cluster.Broadcaster, so a run allocates O(1) objects per
// device however many refinements it runs.
package iterclust

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Params configures one run; all fields are global knowledge.
type Params struct {
	// Model is the channel model (NoCD, CD, or Local).
	Model radio.Model
	// Iterations is the number of labeling refinements.
	Iterations int
	// S is the refinement sweep parameter s.
	S int
	// P is the probability a root keeps layer 0 in each refinement.
	P float64
	// FinalD is the G_L* diameter bound handed to the Lemma 10 Broadcast.
	FinalD int
	// Layers is the layer bound for sweeps (the paper uses n).
	Layers int
	// SR is the SR-communication window specification.
	SR cluster.Spec
}

// NewParams returns the Theorem 11 parameterization (p = 1/2, s = 1,
// Theta(log n) iterations, d = 0) for the given model.
func NewParams(model radio.Model, n, delta int) Params {
	return Params{
		Model:      model,
		Iterations: 6*rng.Log2Ceil(n) + 10,
		S:          1,
		P:          0.5,
		FinalD:     0,
		Layers:     n,
		SR:         cluster.NewSpec(model, n, delta),
	}
}

// NewTheorem12Params returns the Theorem 12 parameterization for the CD
// model: p = log^{-eps/2} n, s = ceil(log2 n), enough iterations to reach
// at most log n roots, and d = ceil(log2 n) for the final Broadcast.
func NewTheorem12Params(n, delta int, eps float64) Params {
	if eps <= 0 || eps >= 1 {
		eps = 0.5
	}
	logN := float64(rng.Log2Ceil(n) + 1)
	p := math.Pow(logN, -eps/2)
	// Iterations: shrink n roots to log n: log(n/log n)/log(1/p), padded.
	iters := int(math.Ceil(math.Log(float64(n))/math.Log(1/p))) + 4
	return Params{
		Model:      radio.CD,
		Iterations: iters,
		S:          rng.Log2Ceil(n) + 1,
		P:          p,
		FinalD:     rng.Log2Ceil(n) + 1,
		Layers:     n,
		SR:         cluster.NewSpec(radio.CD, n, delta),
	}
}

// Slots returns the exact total schedule length of a run.
func (p Params) Slots() uint64 {
	per := cluster.RefineSlots(p.SR, p.Layers, p.S)
	return uint64(p.Iterations)*per + cluster.BroadcastSlots(p.SR, p.Layers, p.FinalD)
}

// DeviceResult is one device's view after the protocol.
type DeviceResult struct {
	// Informed reports whether the device holds the broadcast message.
	Informed bool
	// Msg is the received message (nil if not informed).
	Msg any
	// Label is the device's final good-labeling layer.
	Label int
}

// Proc returns the device step machine for one device: Iterations
// labeling refinements from slot 1, followed by the Lemma 10 Broadcast.
// isSource marks the broadcasting vertex (which holds msg); out receives
// the device's final state. The same machine runs on the physical
// network or through the Theorem 3 LOCAL-over-No-CD simulation
// (Corollary 13). The machine holds the device's whole state.
func Proc(p Params, isSource bool, msg any, out *DeviceResult) radio.Proc {
	return &device{p: p, isSource: isSource, msg: msg, out: out, t: 1,
		r: cluster.Refiner{SR: p.SR, Layers: p.Layers},
		b: cluster.Broadcaster{SR: p.SR, Layers: p.Layers}}
}

// device is one device's step machine: one Refiner re-armed for every
// refinement, then one Broadcaster for the closing Broadcast.
type device struct {
	p        Params
	isSource bool
	msg      any
	out      *DeviceResult

	lab   int    // the device's label; 0 in the trivial all-zero labeling
	it    int    // refinements done; the Broadcast runs at Iterations
	t     uint64 // first slot of the running phase
	armed bool   // the running phase has started
	r     cluster.Refiner
	b     cluster.Broadcaster
}

// Step runs the refinements and then the closing Broadcast. Each phase
// starts in the step in which the previous one halted, on the zero
// Feedback: a refinement draws its root coin there, and the Broadcast
// copies in the final label and the source's message there.
func (d *device) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	p := &d.p
	for d.it < p.Iterations {
		if !d.armed {
			d.armed = true
			d.r.Old = d.lab
			d.r.Arm(d.t, p.S, d.lab == 0 && rng.Bernoulli(ch.Rand(), p.P))
		}
		if act := d.r.Step(ch, fb); act.Kind != radio.ActHalt {
			return act
		}
		d.lab = d.r.New
		d.t += cluster.RefineSlots(p.SR, p.Layers, p.S)
		d.it++
		d.armed = false
		fb = radio.Feedback{}
	}
	if d.it == p.Iterations {
		if !d.armed {
			d.armed = true
			d.b.Label, d.b.Has, d.b.Msg = d.lab, d.isSource, d.msg
			d.b.Arm(d.t, p.FinalD)
		}
		if act := d.b.Step(ch, fb); act.Kind != radio.ActHalt {
			return act
		}
		d.out.Informed, d.out.Msg, d.out.Label = d.b.Has, d.b.Msg, d.lab
		d.it++
	}
	return radio.Halt()
}
