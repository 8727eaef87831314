package cluster

// Step-machine forms of the SR-communication windows, the Lemma 10
// Broadcaster and the refinement, for protocols ported to the inline
// step ABI (radio.Proc). Each form occupies exactly the slots its
// parameters give it and evaluates mutable device state (roles, Has/Msg,
// labels) at window start, which fixes the slot-level event stream a
// protocol emits — the stream the cdmerge, iterclust, dtime and
// partition port pins check.
//
// Layered sweeps are sparse. A device at layer L can act in at most two
// windows of a sweep: the one whose receiver layer is L and the one
// right after it, whose sender layer is L (liveWindows). Sleeps emit no
// events and draw no randomness, so passing over every other window
// leaves the event stream as a window-by-window sweep produces it.
//
// The Broadcaster and the Refiner are radio.Procs armed in place. Arm
// points the device's one flat cast machine (caster) at a Broadcast or
// a refinement from a given slot, and Step runs it until it halts at the
// end of the form's BroadcastSlots or RefineSlots window. The machine is
// a (segment, window) cursor over the form's sequence of sweeps and
// All-cast windows that re-arms one embedded srcomm.Window for each
// window the device takes part in and builds and emits nothing for the
// others, so running a Broadcast or a refinement builds no closure and
// no machine. A protocol runs the armed machine from its own step
// machine (dtime, iterclust) or embeds it in a continuation chain with
// radio.ProcCont (cdmerge), and re-arms it for its next form. SendCont,
// ReceiveCont, SkipCont and SweepCont are the continuation forms of
// single windows and sweeps, for protocols that compose their own
// (dtime's Lemma 17 sweeps, partition); SendCont and ReceiveCont re-arm
// a Window the caller holds, one per device, so a window allocates no
// machine.

import (
	"repro/internal/labeling"
	"repro/internal/radio"
	"repro/internal/srcomm"
)

// arm arms w in the model's SR-communication realization for the window
// at start: as the sender of payload when send is set, else as a
// receiver. It is the one place a model picks its realization.
func (s Spec) arm(w *srcomm.Window, start uint64, send bool, payload any) {
	switch s.Model {
	case radio.Local:
		w.ArmLocal(start, send, payload)
	case radio.CD, radio.CDStar:
		w.ArmCD(start, s.CD, send, payload)
	default:
		w.ArmDecay(start, s.Decay, send, payload)
	}
}

// SendCont arms w as the sender of payload in the window at start and
// runs it, then resumes with k. Call it at window start: it arms w
// when called.
func (s Spec) SendCont(w *srcomm.Window, start uint64, payload any, k radio.Cont) radio.Cont {
	s.arm(w, start, true, payload)
	return radio.ProcCont(w, k)
}

// ReceiveCont arms w as a receiver in the window at start and runs it;
// when the window ends, recv takes its delivery, if any, before k
// resumes. Like SendCont, it arms w when called.
func (s Spec) ReceiveCont(w *srcomm.Window, start uint64, recv func(any), k radio.Cont) radio.Cont {
	s.arm(w, start, false, nil)
	return radio.ProcCont(w, radio.Eval(func() radio.Cont {
		if m, ok := w.Delivery(); ok {
			recv(m)
		}
		return k
	}))
}

// SkipCont advances a non-participant's clock to the end of the window,
// then resumes with k.
func (s Spec) SkipCont(start uint64, k radio.Cont) radio.Cont {
	return radio.Then(radio.Sleep(start+s.Slots()-1), k)
}

// liveWindows returns the windows [lo, hi) of an nw-window sweep that a
// device at layer label can act in: the one whose receiver layer is
// label and the next one, whose sender layer is label. The range is
// empty when label is outside the sweep.
func liveWindows(nw int, down bool, label int) (lo, hi int) {
	first := label - 1 // the window whose receiver layer is label
	if !down {
		first = nw - 1 - label
	}
	lo = min(max(first, 0), nw)
	return lo, max(min(first+2, nw), lo)
}

// windowLayers returns the sender and receiver layers of window i of an
// nw-window sweep. In a down sweep window i links sender layer i to
// receiver layer i+1; in an up sweep it links sender layer nw-i to
// receiver layer nw-1-i.
func windowLayers(nw, i int, down bool) (send, recv int) {
	if down {
		return i, i + 1
	}
	return nw - i, nw - 1 - i
}

// SweepCont emits one layered sweep of nw windows of w slots from start,
// as seen by a device at layer label, then resumes with k. Only the live
// windows (liveWindows) are built, as win(ws, send, recv, next); one
// Sleep on each side covers the others. win must defer every read of
// mutable device state to window start (an Eval), since the two windows
// are assembled together at sweep start.
func SweepCont(start, w uint64, nw int, down bool, label int,
	win func(ws uint64, send, recv int, k radio.Cont) radio.Cont, k radio.Cont) radio.Cont {
	lo, hi := liveWindows(nw, down, label)
	next := k
	if hi < nw {
		next = radio.Then(radio.Sleep(start+uint64(nw)*w-1), k)
	}
	for i := hi - 1; i >= lo; i-- {
		send, recv := windowLayers(nw, i, down)
		next = win(start+uint64(i)*w, send, recv, next)
	}
	if lo > 0 {
		next = radio.Then(radio.Sleep(start+uint64(lo)*w-1), next)
	}
	return next
}

// A castRole is the device state a cast machine runs over: the
// Broadcaster's or the Refiner's. Each method runs at a fixed point of
// the machine's windows (as documented below), which fixes the event
// stream the port pins check.
type castRole interface {
	// enter runs at the machine's first step and exit after its last
	// window.
	enter()
	exit()
	// layer is the device's layer in the swept labeling, read at sweep
	// start.
	layer() int
	// holds reports, at window start, whether the device is a sender.
	holds() bool
	// payload is what a sender sends, read at window start.
	payload() any
	// adopt takes a receive window's delivery.
	adopt(m any)
}

// Segment kinds of a cast sequence, in the order they cycle.
const (
	segUp = iota
	segDown
	segAll
)

// caster is the flat step machine of a cast sequence: segments cycling
// Up, Down, All from a given first kind, where a sweep is nw windows of
// w slots and an All-cast is one window. In a sweep window a holder at
// the sender layer sends and a non-holder at the receiver layer
// receives; in an All-cast every holder sends and everyone else
// receives. Each window the device takes part in runs on win, re-armed
// in place; the machine builds and emits nothing for the others.
type caster struct {
	role castRole
	sr   Spec
	nw   int    // windows per sweep
	w    uint64 // window length

	next uint64 // first slot of the next segment
	kind int    // kind of the next segment
	left int    // segments not yet entered

	base  uint64 // first slot of the current segment
	cur   int    // kind of the current segment
	label int    // the device's layer, read at sweep start
	i, hi int    // next window and end of the current segment's live windows

	started bool
	armed   bool // win holds a window not yet halted
	win     srcomm.Window
}

// reset points c at a cast sequence of segs segments from start, the
// first of kind first, over role's state.
func (c *caster) reset(role castRole, sr Spec, layers int, start uint64, first, segs int) {
	c.role, c.sr = role, sr
	c.nw, c.w = max(layers-1, 0), sr.Slots()
	c.next, c.kind, c.left = start, first, segs
	c.i, c.hi = 0, 0
	c.started, c.armed = false, false
}

// Step runs the armed window until it halts, hands a receiver's delivery
// to the role (a sender window delivers nothing), and arms the next
// window the device takes part in. A freshly armed window starts on the
// zero Feedback.
func (c *caster) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	if !c.started {
		c.started = true
		c.role.enter()
	}
	for {
		if c.armed {
			act := c.win.Step(ch, fb)
			if act.Kind != radio.ActHalt {
				return act
			}
			c.armed = false
			if m, ok := c.win.Delivery(); ok {
				c.role.adopt(m)
			}
		}
		if !c.armNext() {
			c.role.exit()
			return radio.Halt()
		}
		fb = radio.Feedback{}
	}
}

// armNext arms the next window the device takes part in, entering
// segments as they run out, and reports whether one was left.
func (c *caster) armNext() bool {
	for {
		for c.i < c.hi {
			i := c.i
			c.i++
			if c.arm(i) {
				return true
			}
		}
		if c.left == 0 {
			return false
		}
		c.enterSegment()
	}
}

// enterSegment starts the next segment. A sweep reads the device's
// layer and keeps only its live windows.
func (c *caster) enterSegment() {
	c.base, c.cur = c.next, c.kind
	c.kind = (c.kind + 1) % 3
	c.left--
	if c.cur == segAll {
		c.i, c.hi = 0, 1
		c.next += c.w
		return
	}
	c.label = c.role.layer()
	c.i, c.hi = liveWindows(c.nw, c.cur == segDown, c.label)
	c.next += uint64(c.nw) * c.w
}

// arm arms window i of the current segment if the device takes part in
// it, reading its role at window start.
func (c *caster) arm(i int) bool {
	holds := c.role.holds()
	if c.cur != segAll {
		send, recv := windowLayers(c.nw, i, c.cur == segDown)
		if holds && c.label != send || !holds && c.label != recv {
			return false
		}
	}
	var m any
	if holds {
		m = c.role.payload()
	}
	c.sr.arm(&c.win, c.base+uint64(i)*c.w, holds, m)
	c.armed = true
	return true
}

func (b *Broadcaster) enter()       {}
func (b *Broadcaster) exit()        {}
func (b *Broadcaster) layer() int   { return b.Label }
func (b *Broadcaster) holds() bool  { return b.Has }
func (b *Broadcaster) payload() any { return b.Msg }
func (b *Broadcaster) adopt(m any)  { b.Has, b.Msg = true, m }

// Arm readies b's cast machine for Broadcast(d) from slot start: Up-cast,
// d rounds of (Down-cast, All-cast, Up-cast), final Down-cast. The
// Broadcast occupies exactly BroadcastSlots(SR, Layers, d) slots from
// start. Arm reads no device state: the machine reads Label at each
// sweep's start and Has and Msg at each window's start, so set them
// before its first Step.
func (b *Broadcaster) Arm(start uint64, d int) {
	b.cast.reset(b, b.SR, b.Layers, start, segUp, 3*d+2)
}

// Step runs the armed Broadcast, returning each action of the windows
// the device takes part in; it halts after the Broadcast's last window,
// with the outcome in Has and Msg. The first Step ignores its Feedback.
func (b *Broadcaster) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	return b.cast.Step(ch, fb)
}

// enter is the Step 1 root coin: a layer-0 vertex that became a root
// keeps label 0, every other vertex starts unlabeled.
func (r *Refiner) enter() {
	r.New = labeling.Bottom
	if r.root && r.Old == 0 {
		r.New = 0
	}
}

// exit is the fallback: a vertex no sweep reached keeps its old label.
func (r *Refiner) exit() {
	if r.New == labeling.Bottom {
		r.New = r.Old
	}
}

func (r *Refiner) layer() int   { return r.Old }
func (r *Refiner) holds() bool  { return r.New != labeling.Bottom }
func (r *Refiner) payload() any { return r.New }

func (r *Refiner) adopt(m any) {
	if lab, isInt := m.(int); isInt {
		r.New = lab + 1
	}
}

// Arm readies r's cast machine for a refinement with parameter s from
// slot start: s rounds of (Down-cast, All-cast, Up-cast) plus a final
// Down-cast, bracketed by the Step 1 root coin at the first Step and the
// keep-old-label fallback at the last. The refinement occupies exactly
// RefineSlots(SR, Layers, s) slots from start. becomeRoot is the coin,
// drawn by the caller (at refinement start, a fixed point of the random
// stream that the port pins check); set Old before the first Step. A
// Refiner re-armed after its halt runs the next refinement.
func (r *Refiner) Arm(start uint64, s int, becomeRoot bool) {
	r.root = becomeRoot
	r.cast.reset(r, r.SR, r.Layers, start, segDown, 3*s+1)
}

// Step runs the armed refinement; it halts after the refinement's last
// window, with the new label in New. The first Step ignores its
// Feedback.
func (r *Refiner) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	return r.cast.Step(ch, fb)
}
