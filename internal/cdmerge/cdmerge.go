// Package cdmerge implements the improved CD-model Broadcast of Section 7
// (Theorem 20): energy O(log n (log log Delta + 1/xi) / log log log Delta)
// at the price of super-linear O(Delta n^{1+xi}) time.
//
// The algorithm maintains an explicit forest of cluster trees (parent
// pointers), synchronized through c random (n^xi * Delta)-colorings:
//
//   - Ind(u, parent(u)) is the first coloring in which the parent's color
//     is unique in u's neighborhood (Lemma 19); child-parent traffic then
//     uses only the parent's color slot of that coloring, which isolates
//     trees from each other deterministically.
//   - Downward transmission (parent -> children) is deterministic and
//     collision-free; Upward transmission (children -> parent) runs a
//     Lemma 8 SR-communication per (coloring, color) pair, with the ACK
//     optimization since each sender has exactly one receiver.
//   - Clusters merge in Active/Wait/Halt rounds (Section 7.2): Active
//     clusters broadcast merge requests and halt; Wait clusters receiving
//     a request re-root at the capturing vertex, relabel along the old
//     tree (Section 6.4), hang under the requester, and become Active.
//
// After O(log n / log log log Delta) outer rounds the forest has few
// roots and the Lemma 10 Broadcast finishes.
package cdmerge

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/srcomm"
)

// Params configures a Theorem 20 run; all fields are global knowledge.
type Params struct {
	// Xi is the time/energy tradeoff exponent (0 < Xi <= 1).
	Xi float64
	// C is the number of random colorings (Theta(1/Xi)).
	C int
	// K is the palette size per coloring, ceil(n^Xi * Delta).
	K int
	// P is the probability a root starts a round Active.
	P float64
	// S is the number of merge iterations per outer round.
	S int
	// Outer is the number of outer rounds.
	Outer int
	// Layers bounds tree depths (n).
	Layers int
	// FinalD is the Lemma 10 diameter bound for the closing Broadcast.
	FinalD int
	// UpSR parameterizes each Upward-transmission SR sub-window.
	UpSR srcomm.CDParams
	// ReqSR parameterizes the merge-request SR window.
	ReqSR srcomm.CDParams
	// SR is the spec for the closing Lemma 10 Broadcast.
	SR cluster.Spec
}

// NewParams derives the standard parameterization for n vertices with
// maximum degree delta.
func NewParams(n, delta int, xi float64) (Params, error) {
	if n < 1 {
		return Params{}, fmt.Errorf("cdmerge: n = %d", n)
	}
	if xi <= 0 || xi > 1 {
		return Params{}, fmt.Errorf("cdmerge: xi %v outside (0,1]", xi)
	}
	if delta < 1 {
		delta = 1
	}
	logN := rng.Log2Ceil(n) + 1
	loglogD := rng.Log2Ceil(rng.Log2Ceil(delta)+1) + 1
	c := int(math.Ceil(3 / xi))
	if c < 2 {
		c = 2
	}
	k := int(math.Ceil(math.Pow(float64(n), xi) * float64(delta)))
	if k < delta+1 {
		k = delta + 1
	}
	s := loglogD + 1
	outer := 4*logN + 4
	p := Params{
		Xi:     xi,
		C:      c,
		K:      k,
		P:      1 / math.Sqrt(float64(loglogD)+1),
		S:      s,
		Outer:  outer,
		Layers: n,
		FinalD: logN + 2,
		UpSR:   srcomm.CDParams{Delta: delta, Epochs: 2*loglogD + 6, Precheck: true, Ack: true},
		ReqSR:  srcomm.CDParams{Delta: delta, Epochs: 2*loglogD + 6, Precheck: true},
		SR:     cluster.NewSpec(radio.CD, n, delta),
	}
	if p.Slots() > 1<<55 {
		return Params{}, fmt.Errorf("cdmerge: schedule of %d slots impractical", p.Slots())
	}
	return p, nil
}

// Tune overrides protocol constants for experiments (non-positive keeps
// current values).
func (p Params) Tune(outer, s, layers int) Params {
	if outer > 0 {
		p.Outer = outer
	}
	if s > 0 {
		p.S = s
	}
	if layers > 0 {
		p.Layers = layers
	}
	return p
}

// lemma19Slots is the cost of one Ind-learning pass.
func (p Params) lemma19Slots() uint64 { return uint64(p.C) * uint64(p.K) }

// downSlots is the cost of one deterministic Downward pass over all
// layers.
func (p Params) downSlots() uint64 {
	return uint64(p.Layers-1) * uint64(p.C) * uint64(p.K)
}

// upSlots is the cost of one Upward pass (an SR sub-window per
// (coloring, color) pair per layer).
func (p Params) upSlots() uint64 {
	return uint64(p.Layers-1) * uint64(p.C) * uint64(p.K) * p.UpSR.Slots()
}

// innerSlots is one merge iteration: request window, gather (up),
// decision (down), relabel (up+down), Ind re-learning.
func (p Params) innerSlots() uint64 {
	return p.ReqSR.Slots() + 2*p.upSlots() + 2*p.downSlots() + p.lemma19Slots()
}

// outerSlots is one outer round: state announce plus S merge iterations.
func (p Params) outerSlots() uint64 {
	return p.downSlots() + uint64(p.S)*p.innerSlots()
}

// Slots returns the full schedule length.
func (p Params) Slots() uint64 {
	return p.lemma19Slots() + uint64(p.Outer)*p.outerSlots() +
		cluster.BroadcastSlots(p.SR, p.Layers, p.FinalD)
}

// cluster states (Section 7.2).
const (
	stateWait = iota
	stateActive
	stateHalt
)

type reqMsg struct {
	from       int
	fromColors []int
	fromLayer  int
}

type gatherCand struct {
	capturer int
}

type decisionMsg struct {
	winner int
}

type relabelMsg struct {
	from       int
	fromColors []int
	newLayer   int
}

type stateMsg struct {
	state int
}

// DeviceResult is one device's final view.
type DeviceResult struct {
	Informed bool
	Msg      any
	Label    int
	Parent   int
}
