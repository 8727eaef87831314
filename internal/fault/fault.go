// Package fault defines the deterministic fault-injection plan threaded
// through the radio engine: crash-stop faults (a device dies at an
// action slot and never acts again), sleep faults (a device is forced
// idle for a window of slots — its scheduled transmits and listens in
// the window are suppressed), and lossy slots (a delivery a listener
// would have received is erased to silence).
//
// # Determinism contract
//
// Fault decisions are *positional*: whether device v faults at slot t is
// a pure hash of (fault root, v, t), where the fault root is derived
// from the run seed on a dedicated SplitMix64 child stream disjoint from
// every per-device protocol stream. No generator state is consumed, so
//
//   - enabling faults never perturbs a protocol coin flip — a run with
//     Rate 0 (or Kind None) is byte-identical to a run with no fault
//     configuration at all, golden traces included;
//   - decisions are independent of scheduling: solo and batched
//     execution, any worker count and any batch width, inject the exact
//     same faults at the exact same slots;
//   - a (cell, trial) position in a sweep matrix gets its own fault
//     stream for free, because the trial seed itself is positional.
package fault

import (
	"fmt"
	"strconv"

	"repro/internal/rng"
)

// Kind selects the fault model. The zero value is None: no injection.
type Kind string

// The fault kinds. One plan injects one kind.
const (
	None  Kind = ""
	Crash Kind = "crash"
	Sleep Kind = "sleep"
	Loss  Kind = "loss"
)

// Spec declares one fault configuration. The zero value — and any spec
// with Rate 0 — is inactive: the engine behaves exactly as if the field
// had never been set.
type Spec struct {
	// Kind selects what is injected.
	Kind Kind `json:"kind,omitempty"`
	// Rate is the per-decision fault probability in [0, 1]: per action
	// slot per device for Crash and Sleep, per listen with a pending
	// delivery for Loss.
	Rate float64 `json:"rate,omitempty"`
	// Window is the number of slots a Sleep fault forces the device idle
	// (0 means 1). Ignored by other kinds.
	Window int `json:"window,omitempty"`
}

// Active reports whether the spec injects anything. Inactive specs make
// no decisions, render no labels, and add no report columns.
func (s Spec) Active() bool { return s.Kind != None && s.Rate > 0 }

// Validate rejects malformed specs.
func (s Spec) Validate() error {
	switch s.Kind {
	case None:
		if s.Rate != 0 || s.Window != 0 {
			return fmt.Errorf("fault: rate/window set without a kind")
		}
		return nil
	case Crash, Sleep, Loss:
	default:
		return fmt.Errorf("fault: unknown kind %q (valid: crash, sleep, loss)", string(s.Kind))
	}
	if s.Rate < 0 || s.Rate > 1 || s.Rate != s.Rate {
		return fmt.Errorf("fault: rate %v outside [0, 1]", s.Rate)
	}
	if s.Window < 0 {
		return fmt.Errorf("fault: negative window %d", s.Window)
	}
	if s.Window != 0 && s.Kind != Sleep {
		return fmt.Errorf("fault: window is only meaningful for sleep faults")
	}
	return nil
}

// Label renders an active spec for cell labels and reports:
// "crash:0.001", or "sleep:0.01:w=8" when a non-default window is set.
// Inactive specs render empty.
func (s Spec) Label() string {
	if !s.Active() {
		return ""
	}
	l := string(s.Kind) + ":" + strconv.FormatFloat(s.Rate, 'g', -1, 64)
	if s.Kind == Sleep && s.Window > 1 {
		l += ":w=" + strconv.Itoa(s.Window)
	}
	return l
}

// faultStream is the child-stream index the fault root is derived on.
// Per-device protocol streams use child indices 0..n-1, so any constant
// far above every realistic device count keeps the streams disjoint.
const faultStream = 0x6661756c74 // "fault"

// Plan is a spec bound to one run's seed: the engine-side decision
// procedure. The zero Plan is inactive. Plans are stateless — safe to
// copy, and decisions may be evaluated in any order or not at all
// without affecting later ones.
type Plan struct {
	kind   Kind
	rate   float64
	window uint64
	root   uint64
	on     bool
}

// Plan binds the spec to a run seed. Inactive specs yield the inactive
// plan regardless of seed.
func (s Spec) Plan(seed uint64) Plan {
	if !s.Active() {
		return Plan{}
	}
	w := uint64(1)
	if s.Window > 1 {
		w = uint64(s.Window)
	}
	return Plan{
		kind:   s.Kind,
		rate:   s.Rate,
		window: w,
		root:   rng.Child(seed, faultStream),
		on:     true,
	}
}

// Active reports whether the plan injects anything.
func (p Plan) Active() bool { return p.on }

// Kind returns the plan's fault kind (None when inactive).
func (p Plan) Kind() Kind {
	if !p.on {
		return None
	}
	return p.kind
}

// Window returns the sleep-fault window in slots (>= 1 when active).
func (p Plan) Window() uint64 { return p.window }

// Fires decides whether device v faults at slot t: a pure positional
// hash against the plan's rate, consuming no generator state.
func (p Plan) Fires(v int32, t uint64) bool {
	if !p.on {
		return false
	}
	h := p.root
	h = rng.SplitMix64(h ^ rng.SplitMix64(uint64(uint32(v))+0x9e3779b97f4a7c15))
	h = rng.SplitMix64(h ^ rng.SplitMix64(t+0x2545f4914f6cdd1d))
	return float64(h>>11)*0x1.0p-53 < p.rate
}
