// Package srcomm implements SR-communication, the basic building block of
// Section 4 of the paper. Given vertex sets S (senders, each with a
// message) and R (receivers), SR-communication guarantees that every
// receiver with at least one S-neighbor obtains some neighbor's message
// with probability 1-f.
//
// Three realizations are provided, one per model:
//
//   - No-CD: the randomized decay protocol of Bar-Yehuda, Goldreich and
//     Itai (Lemma 7): O(log Delta log 1/f) time and energy.
//   - CD: the generic transformation of a uniform leader-election schedule
//     (Lemma 8): senders follow an oblivious geometric pattern, receivers
//     steer a leader.Schedule; O(log log Delta + log 1/f) receiver energy,
//     plus the Remark 9 relevance pre-check and the single-receiver ACK
//     optimization.
//   - CD deterministic: Lemma 24 over IDs. A binary search over ID
//     prefixes finds the minimum sender ID in a receiver's neighborhood,
//     then that sender's message arrives in the slot indexed by its ID:
//     O(N) time and O(log N) energy for ID space N.
//
// Every protocol occupies a fixed slot window [start, start+Slots()).
// A participant finishes the window with its local clock at
// start+Slots()-1, so the next block can begin at start+Slots(). Devices
// not participating sleep past the window; all devices of a larger
// protocol must agree on start and parameters, which is how the paper's
// algorithms keep global synchronization.
//
// Each role is a resumable step machine, and a Window is how to run one:
// arm it as the sender or the receiver of one realization for one
// window, step it as a radio.Proc until it halts, and read a receiver's
// delivery. A device that runs window after window re-arms its one
// Window in place instead of allocating a machine per window.
package srcomm

import (
	"repro/internal/leader"
	"repro/internal/radio"
	"repro/internal/rng"
)

// DecayParams configures the No-CD decay protocol.
type DecayParams struct {
	// Delta is the maximum-degree bound (at least 1); each phase sweeps
	// exponents 0..ceil(log2 Delta)+1.
	Delta int
	// Phases is the number of independent decay phases; the failure
	// probability is exp(-Theta(Phases)).
	Phases int
}

// PhaseLen returns the number of slots in one decay phase.
func (p DecayParams) PhaseLen() int {
	return rng.Log2Ceil(p.Delta) + 2
}

// Slots returns the total window length of the protocol.
func (p DecayParams) Slots() uint64 {
	return uint64(p.Phases * p.PhaseLen())
}

// DecayPhasesForFailure returns a phase count giving failure probability
// roughly n^-c for the given n (used to instantiate Lemma 7's
// f = 1/poly(n)).
func DecayPhasesForFailure(n int) int {
	ph := 4 * (rng.Log2Ceil(n) + 1)
	if ph < 8 {
		ph = 8
	}
	return ph
}

// decaySend is the resumable step machine of the sender role: in each
// phase it transmits in slot 0, then survives each subsequent slot with
// probability 1/2 (transmitting while alive) — the classical decay
// pattern, giving expected O(Phases) energy. It draws a phase's
// survival coins at the phase's start, one per transmit (the last one
// decides nothing once the phase is full), and sends the phase as one
// transmit run, so a window costs Phases+2 steps.
type decaySend struct {
	p       DecayParams
	start   uint64
	payload any
	ph      int
	done    bool
}

func (s *decaySend) Step(ch radio.Channel, _ radio.Feedback) radio.Action {
	if s.done {
		return radio.Halt()
	}
	if s.ph >= s.p.Phases {
		s.done = true
		return radio.Sleep(s.start + s.p.Slots() - 1)
	}
	plen := s.p.PhaseLen()
	n := 1
	for ch.Rand().Uint64()&1 == 1 && n < plen {
		n++
	}
	first := s.start + uint64(s.ph)*uint64(plen)
	s.ph++
	return radio.TransmitRun(first, n, s.payload)
}

// decayRecv is the receiver role: one listen run over the whole window,
// which ends at the first message heard.
type decayRecv struct {
	p     DecayParams
	start uint64
	got   *delivery
	pc    int // 0 window start, 1 run issued, 2 done
}

func (r *decayRecv) Step(_ radio.Channel, fb radio.Feedback) radio.Action {
	switch r.pc {
	case 0: // an empty window has no slot to listen in
		r.pc = 2
		if r.p.Phases > 0 {
			r.pc = 1
			return radio.ListenRun(r.start, int(r.p.Slots()))
		}
	case 1: // the run ended at the first delivery or the window's last slot
		if fb.Status == radio.Received {
			*r.got = delivery{fb.Payload, true}
		}
		r.pc = 2
	default:
		return radio.Halt()
	}
	return radio.Sleep(r.start + r.p.Slots() - 1)
}

// CDParams configures the Lemma 8 CD protocol.
type CDParams struct {
	// Delta is the maximum-degree bound (at least 1).
	Delta int
	// Epochs is the epoch count T; failure is exp(-Theta(Epochs)) once the
	// schedule has locked on (which takes O(log log Delta) epochs).
	Epochs int
	// Precheck enables the Remark 9 two-slot relevance test: senders with
	// no receiver neighbor and receivers with no sender neighbor drop out
	// with O(1) energy.
	Precheck bool
	// Ack enables the end-of-epoch acknowledgment slot of Lemma 8's
	// special case (each sender adjacent to at most one receiver): a
	// receiver announces success once, releasing its senders early.
	Ack bool
}

// EpochLen returns the slots per epoch (exponent slots plus optional ACK).
func (p CDParams) EpochLen() int {
	l := rng.Log2Ceil(p.Delta) + 1
	if p.Ack {
		l++
	}
	return l
}

func (p CDParams) precheckSlots() int {
	if p.Precheck {
		return 2
	}
	return 0
}

// Slots returns the total window length of the protocol.
func (p CDParams) Slots() uint64 {
	return uint64(p.precheckSlots() + p.Epochs*p.EpochLen())
}

// CDEpochsForFailure returns an epoch count for failure ~ n^-c
// (instantiating f = 1/poly(n)), including the O(log log Delta) lock-on.
func CDEpochsForFailure(n, delta int) int {
	ep := 3*(rng.Log2Ceil(n)+1) + 4*(rng.Log2Ceil(rng.Log2Ceil(delta)+1)+1)
	if ep < 8 {
		ep = 8
	}
	return ep
}

// cdSend is the sender role of the Lemma 8 protocol. The sender is
// oblivious: in each epoch it transmits at exponent-slot i with
// probability 2^-i, capped at two transmissions per epoch. With
// Precheck it first checks for receiver neighbors; with Ack it listens
// at each epoch's final slot and stops once its (unique) receiver
// announces success. The machine draws an epoch's whole transmission
// plan at epoch entry; channel actions never touch the private random
// stream, so the draw order is independent of channel feedback.
type cdSend struct {
	p       CDParams
	start   uint64
	payload any

	pc      int // 0 start, 1 precheck fb, 2 epoch transmits, 3 ack fb, 4 done, 5 precheck tx resolved
	kMax    int
	ep      int
	pending [2]uint64 // this epoch's transmit slots
	np, pi  int
}

func (s *cdSend) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	p := s.p
	switch s.pc {
	case 0:
		s.kMax = rng.Log2Ceil(p.Delta) + 1
		if p.Precheck {
			// Slot 1: receivers transmit, senders listen.
			s.pc = 1
			return radio.Listen(s.start)
		}
		return s.enterEpoch(ch)
	case 1:
		if fb.Status == radio.Silence {
			// No receiver neighbor: irrelevant to this invocation.
			return s.finish()
		}
		// Slot 2: senders transmit (for the receivers' own pre-check).
		// The epoch plan is drawn when the epoch starts, i.e. on the
		// step after this transmit resolves.
		s.pc = 5
		return radio.Transmit(s.start+1, s.payload)
	case 5:
		return s.enterEpoch(ch)
	case 2:
		return s.emitEpoch(ch)
	case 3:
		if fb.Status != radio.Silence {
			// Our unique receiver (or, conservatively, some receiver)
			// is done.
			return s.finish()
		}
		s.ep++
		return s.enterEpoch(ch)
	default:
		return radio.Halt()
	}
}

// enterEpoch draws the epoch's transmission plan and emits its first
// action (or finishes the window when the epochs are exhausted).
func (s *cdSend) enterEpoch(ch radio.Channel) radio.Action {
	if s.ep >= s.p.Epochs {
		return s.finish()
	}
	base := s.start + uint64(s.p.precheckSlots()+s.ep*s.p.EpochLen())
	s.np, s.pi = 0, 0
	sent := 0
	for i := 1; i <= s.kMax; i++ {
		if sent < 2 && rng.BernoulliPow2(ch.Rand(), i) {
			s.pending[s.np] = base + uint64(i-1)
			s.np++
			sent++
		}
	}
	s.pc = 2
	return s.emitEpoch(ch)
}

// emitEpoch plays out the drawn plan: the pending transmits, then the
// optional ACK listen, then the next epoch.
func (s *cdSend) emitEpoch(ch radio.Channel) radio.Action {
	if s.pi < s.np {
		slot := s.pending[s.pi]
		s.pi++
		return radio.Transmit(slot, s.payload)
	}
	if s.p.Ack {
		base := s.start + uint64(s.p.precheckSlots()+s.ep*s.p.EpochLen())
		s.pc = 3
		return radio.Listen(base + uint64(s.kMax))
	}
	s.ep++
	return s.enterEpoch(ch)
}

func (s *cdSend) finish() radio.Action {
	s.pc = 4
	return radio.Sleep(s.start + s.p.Slots() - 1)
}

// cdRecv is the receiver role: it steers a leader.Schedule with the
// feedback from one listening slot per epoch and stops after the first
// successful delivery (announcing it in the ACK slot when enabled).
type cdRecv struct {
	p     CDParams
	start uint64
	got   *delivery

	pc    int // 0 start, 1 probe sent, 2 precheck fb, 3 epoch fb, 4 ack sent, 5 done
	kMax  int
	ep    int
	sched leader.Schedule
}

func (r *cdRecv) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	p := r.p
	switch r.pc {
	case 0:
		r.kMax = rng.Log2Ceil(p.Delta) + 1
		r.sched = *leader.NewSchedule(p.Delta)
		if p.Precheck {
			// Slot 1: receivers transmit a probe.
			r.pc = 1
			return radio.Transmit(r.start, nil)
		}
		return r.epochListen()
	case 1:
		// Slot 2: senders transmit; a silent channel means no senders.
		r.pc = 2
		return radio.Listen(r.start + 1)
	case 2:
		if fb.Status == radio.Silence {
			return r.finish()
		}
		return r.epochListen()
	case 3:
		if fb.Status == radio.Received {
			*r.got = delivery{fb.Payload, true}
		} else {
			r.sched.Update(fb.Status)
		}
		if p.Ack && r.got.ok {
			base := r.start + uint64(p.precheckSlots()+r.ep*p.EpochLen())
			r.pc = 4
			return radio.Transmit(base+uint64(r.kMax), nil)
		}
		if r.got.ok {
			return r.finish()
		}
		r.ep++
		return r.epochListen()
	case 4:
		return r.finish()
	default:
		return radio.Halt()
	}
}

// epochListen emits the epoch's single schedule-steered listen, or
// finishes the window when the epochs are exhausted.
func (r *cdRecv) epochListen() radio.Action {
	if r.ep >= r.p.Epochs {
		return r.finish()
	}
	base := r.start + uint64(r.p.precheckSlots()+r.ep*r.p.EpochLen())
	k := r.sched.K()
	if k > r.kMax {
		k = r.kMax
	}
	r.pc = 3
	return radio.Listen(base + uint64(k-1))
}

func (r *cdRecv) finish() radio.Action {
	r.pc = 5
	return radio.Sleep(r.start + r.p.Slots() - 1)
}

// DetParams configures the deterministic CD protocol of Lemma 24 over
// IDs: stage one binary-searches the minimum sender ID in a receiver's
// neighborhood, and stage two carries that sender's payload in the slot
// indexed by its ID.
type DetParams struct {
	// IDSpace is the deterministic ID bound N (at least 1).
	IDSpace int
}

// bits returns the rounds of stage one: one per ID bit.
func (p DetParams) bits() int {
	return max(rng.Log2Ceil(p.IDSpace), 1)
}

// Slots returns the total window length: round x of stage one has one
// slot per (x+1)-bit prefix, 2^(x+1) in all, and stage two one per ID.
func (p DetParams) Slots() uint64 {
	return uint64(1)<<uint(p.bits()+1) - 2 + uint64(p.IDSpace)
}

// detSend is the sender role of Lemma 24: in round x it transmits its ID
// in the slot indexed by the ID's (x+1)-bit prefix, then its payload in
// the stage-two slot indexed by the ID.
type detSend struct {
	p       DetParams
	start   uint64
	payload any
	base    uint64 // first slot of the next round
	x       int    // rounds sent; bits+1 once the payload is sent
}

func (s *detSend) Step(ch radio.Channel, _ radio.Feedback) radio.Action {
	id := ch.AssignedID()
	bits := s.p.bits()
	switch {
	case s.x < bits:
		prefix := (id - 1) >> uint(bits-s.x-1)
		act := radio.Transmit(s.base+uint64(prefix), id)
		s.base += uint64(1) << uint(s.x+1)
		s.x++
		return act
	case s.x == bits:
		s.x++
		return radio.Transmit(s.base+uint64(id-1), s.payload)
	case s.x == bits+1:
		s.x++
		return radio.Sleep(s.start + s.p.Slots() - 1)
	}
	return radio.Halt()
}

// detRecv is the receiver role: it binary-searches the minimum ID among
// its sending neighbors, one bit per round, and fetches that sender's
// payload in stage two.
type detRecv struct {
	p      DetParams
	start  uint64
	got    *delivery
	pc     int    // 0 window start, 1 await p0, 2 await p1, 3 await stage two, 4 done
	base   uint64 // first slot of the current round
	prefix int    // the live ID prefix, 0-based
	x      int    // rounds decided
}

func (r *detRecv) Step(_ radio.Channel, fb radio.Feedback) radio.Action {
	switch r.pc {
	case 0:
		return r.round()
	case 1: // feedback of the p0 probe
		if fb.Status != radio.Silence {
			return r.take(r.prefix << 1)
		}
		r.pc = 2
		return radio.Listen(r.base + uint64(r.prefix<<1|1))
	case 2: // feedback of the p1 probe
		if fb.Status != radio.Silence {
			return r.take(r.prefix<<1 | 1)
		}
		// No ID matches: no sender in the neighborhood.
		return r.finish()
	case 3: // feedback of the stage-two fetch
		if fb.Status == radio.Received {
			*r.got = delivery{fb.Payload, true}
		}
		return r.finish()
	default:
		return radio.Halt()
	}
}

// round probes the 0-extension of the live prefix, or, once every bit
// is decided, listens in the winning ID's stage-two slot.
func (r *detRecv) round() radio.Action {
	if r.x == r.p.bits() {
		r.pc = 3
		return radio.Listen(r.base + uint64(r.prefix))
	}
	r.pc = 1
	return radio.Listen(r.base + uint64(r.prefix<<1))
}

// take commits the round's winning prefix and moves to the next round.
func (r *detRecv) take(prefix int) radio.Action {
	r.prefix = prefix
	r.base += uint64(1) << uint(r.x+1)
	r.x++
	return r.round()
}

func (r *detRecv) finish() radio.Action {
	r.pc = 4
	return radio.Sleep(r.start + r.p.Slots() - 1)
}

// localSend is the sender role of the trivial LOCAL SR-communication
// (deterministic, collision-free): one transmit in the window's single
// slot.
type localSend struct {
	start   uint64
	payload any
	done    bool
}

func (s *localSend) Step(radio.Channel, radio.Feedback) radio.Action {
	if s.done {
		return radio.Halt()
	}
	s.done = true
	return radio.Transmit(s.start, s.payload)
}

// localRecv is the LOCAL receiver role: one listen in the window's
// single slot. It halts on the step that carries the listen's feedback,
// delivering the first message heard, the lowest-index transmitting
// neighbor's.
type localRecv struct {
	start    uint64
	got      *delivery
	listened bool
}

func (r *localRecv) Step(_ radio.Channel, fb radio.Feedback) radio.Action {
	if !r.listened {
		r.listened = true
		return radio.Listen(r.start)
	}
	if heard := fb.Payloads(); len(heard) > 0 {
		*r.got = delivery{heard[0], true}
	}
	return radio.Halt()
}

// Window is a re-armable SR-communication window: armed as the sender
// or the receiver of one realization for one window, then stepped until
// it halts. It holds the role machines by value and steps the armed one,
// so a device that runs window after window re-arms one Window in place
// instead of allocating a machine per window. The Lemma 24 machines sit
// behind a pointer that the first ArmDet allocates: protocols embed a
// Window per device, and only detcast arms one for Lemma 24. A
// receiver's delivery stays in the Window (see Delivery). Step on a
// Window that was never armed panics.
type Window struct {
	role radio.Proc // the armed machine, one of the fields below

	localSend localSend
	localRecv localRecv
	cdSend    cdSend
	cdRecv    cdRecv
	decaySend decaySend
	decayRecv decayRecv
	det       *detRoles

	got delivery // what the armed receiver delivered
}

// delivery is what a receiver window delivered: the message, and
// whether there was one.
type delivery struct {
	msg any
	ok  bool
}

// detRoles holds a Window's Lemma 24 machines.
type detRoles struct {
	send detSend
	recv detRecv
}

// ArmLocal arms w for the LOCAL window at start, as the sender of
// payload when send is set and as a receiver otherwise.
func (w *Window) ArmLocal(start uint64, send bool, payload any) {
	w.clearDelivery()
	if send {
		w.localSend = localSend{start: start, payload: payload}
		w.role = &w.localSend
		return
	}
	w.localRecv = localRecv{start: start, got: &w.got}
	w.role = &w.localRecv
}

// ArmCD arms w for the Lemma 8 window at start, as the sender of
// payload when send is set and as a receiver otherwise.
func (w *Window) ArmCD(start uint64, p CDParams, send bool, payload any) {
	w.clearDelivery()
	if send {
		w.cdSend = cdSend{p: p, start: start, payload: payload}
		w.role = &w.cdSend
		return
	}
	w.cdRecv = cdRecv{p: p, start: start, got: &w.got}
	w.role = &w.cdRecv
}

// ArmDecay arms w for the Lemma 7 decay window at start, as the sender
// of payload when send is set and as a receiver otherwise.
func (w *Window) ArmDecay(start uint64, p DecayParams, send bool, payload any) {
	w.clearDelivery()
	if send {
		w.decaySend = decaySend{p: p, start: start, payload: payload}
		w.role = &w.decaySend
		return
	}
	w.decayRecv = decayRecv{p: p, start: start, got: &w.got}
	w.role = &w.decayRecv
}

// ArmDet arms w for the Lemma 24 window at start, as the sender of
// payload when send is set and as a receiver otherwise. Senders search
// by their assigned IDs, so the run needs an IDSpace of at most
// p.IDSpace.
func (w *Window) ArmDet(start uint64, p DetParams, send bool, payload any) {
	w.clearDelivery()
	if w.det == nil {
		w.det = new(detRoles)
	}
	if send {
		w.det.send = detSend{p: p, start: start, payload: payload, base: start}
		w.role = &w.det.send
		return
	}
	w.det.recv = detRecv{p: p, start: start, got: &w.got, base: start}
	w.role = &w.det.recv
}

func (w *Window) clearDelivery() { w.got = delivery{} }

// Step steps the armed role machine.
func (w *Window) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	return w.role.Step(ch, fb)
}

// Delivery returns the message a receiver window delivered and true, or
// nil and false when it delivered none. In LOCAL the message is the one
// from the lowest-index transmitting neighbor. It is valid once the
// window has halted, until the Window is armed again.
func (w *Window) Delivery() (any, bool) { return w.got.msg, w.got.ok }
