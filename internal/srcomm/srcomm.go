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
//   - CD deterministic: binary search over message prefixes (Lemma 24):
//     O(min{M,N}) time and O(log min{M,N}) energy.
//
// Every protocol occupies a fixed slot window [start, start+Slots()).
// A participant finishes the window with its local clock at
// start+Slots()-1, so the next block can begin at start+Slots(). Devices
// not participating sleep past the window with the Skip helpers; all
// devices of a larger protocol must agree on start and parameters, which
// is how the paper's algorithms keep global synchronization.
//
// Each role is a resumable step machine. The Proc constructors return a
// fresh one per window; a Window holds one of each LOCAL, CD and decay
// machine and re-arms one in place, for a device that runs window after
// window without allocating per window.
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

// DecaySendProc returns the sender role as an inline step proc
// occupying [start, start+Slots()). Procs are single-use.
func DecaySendProc(start uint64, p DecayParams, payload any) radio.Proc {
	return &decaySend{p: p, start: start, payload: payload}
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
	got   *any
	ok    *bool
	pc    int // 0 window start, 1 run issued, 2 done
}

// DecayReceiveProc returns the receiver role as an inline step proc.
// The first received payload (if any) is stored through got/ok when the
// proc halts. Procs are single-use.
func DecayReceiveProc(start uint64, p DecayParams, got *any, ok *bool) radio.Proc {
	return &decayRecv{p: p, start: start, got: got, ok: ok}
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
			*r.got, *r.ok = fb.Payload, true
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

// CDSendProc returns the sender role as an inline step proc. Procs are
// single-use.
func CDSendProc(start uint64, p CDParams, payload any) radio.Proc {
	return &cdSend{p: p, start: start, payload: payload}
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
	got   *any
	ok    *bool

	pc    int // 0 start, 1 probe sent, 2 precheck fb, 3 epoch fb, 4 ack sent, 5 done
	kMax  int
	ep    int
	sched leader.Schedule
}

// CDReceiveProc returns the receiver role as an inline step proc. The
// received payload (if any) is stored through got/ok. Procs are
// single-use.
func CDReceiveProc(start uint64, p CDParams, got *any, ok *bool) radio.Proc {
	return &cdRecv{p: p, start: start, got: got, ok: ok}
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
			*r.got, *r.ok = fb.Payload, true
		} else {
			r.sched.Update(fb.Status)
		}
		if p.Ack && *r.ok {
			base := r.start + uint64(p.precheckSlots()+r.ep*p.EpochLen())
			r.pc = 4
			return radio.Transmit(base+uint64(r.kMax), nil)
		}
		if *r.ok {
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

// DetParams configures the deterministic CD protocol of Lemma 24.
// Messages are integers in {1..M}. When M exceeds the ID space N, the
// two-stage variant applies: the binary search runs over IDs, then one
// slot per ID carries the actual message.
type DetParams struct {
	// M is the message-space bound (at least 1).
	M int
	// IDSpace is the deterministic ID bound N (0 if IDs are unavailable,
	// forcing the direct O(M) schedule).
	IDSpace int
}

// TwoStage reports whether the M > N two-stage variant applies.
func (p DetParams) TwoStage() bool {
	return p.IDSpace > 0 && p.M > p.IDSpace
}

// searchSpace returns the value space binary-searched in stage one.
func (p DetParams) searchSpace() int {
	if p.TwoStage() {
		return p.IDSpace
	}
	return p.M
}

func (p DetParams) bits() int {
	b := rng.Log2Ceil(p.searchSpace())
	if b == 0 {
		b = 1
	}
	return b
}

// Slots returns the total window length.
func (p DetParams) Slots() uint64 {
	// Round x (x = 0..bits-1) uses 2^(x+1) slots: one per (x+1)-bit prefix.
	total := uint64(0)
	for x := 0; x < p.bits(); x++ {
		total += uint64(1) << uint(x+1)
	}
	if p.TwoStage() {
		total += uint64(p.IDSpace)
	}
	return total
}

// detSend is the sender role of Lemma 24: in round x it transmits at
// the slot indexed by the (x+1)-bit prefix of its search key (the
// message, or its ID in the two-stage variant); in the two-stage
// variant it finally transmits m in the slot indexed by its ID.
type detSend struct {
	p     DetParams
	start uint64
	m     int

	inited  bool
	bits, x int
	base    uint64
	key     int
	stage2  bool
	slept   bool
}

// DetSendProc returns the sender role as an inline step proc. Senders
// must not simultaneously be receivers (a receiver that also holds a
// message instead passes it to DetReceive as ownKey). Procs are
// single-use.
func DetSendProc(start uint64, p DetParams, m int) radio.Proc {
	return &detSend{p: p, start: start, m: m}
}

func (s *detSend) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	if !s.inited {
		s.inited = true
		s.key = s.m
		if s.p.TwoStage() {
			s.key = ch.AssignedID()
		}
		s.bits = s.p.bits()
		s.base = s.start
	}
	key0 := s.key - 1 // work in {0..space-1}
	if s.x < s.bits {
		prefix := key0 >> uint(s.bits-s.x-1)
		act := radio.Transmit(s.base+uint64(prefix), s.key)
		s.base += uint64(1) << uint(s.x+1)
		s.x++
		return act
	}
	if s.p.TwoStage() && !s.stage2 {
		s.stage2 = true
		return radio.Transmit(s.base+uint64(key0), s.m)
	}
	if !s.slept {
		s.slept = true
		return radio.Sleep(s.start + s.p.Slots() - 1)
	}
	return radio.Halt()
}

// detRecv is the receiver role: it binary-searches the minimum key
// present in its inclusive neighborhood and (in the two-stage variant)
// fetches the winner's message.
type detRecv struct {
	p              DetParams
	start          uint64
	ownKey, ownMsg int
	got            *int
	ok             *bool

	pc     int // 0 round start, 1 await p0, 2 await p1, 3 await stage-2, 4 done
	inited bool
	bits   int
	base   uint64
	prefix int
	heard  bool
	own0   int
	x      int
}

// DetReceiveProc returns the receiver role as an inline step proc.
//
// ownKey (0 if absent) injects the receiver's own key into the minimum,
// implementing Lemma 24's N+(v) semantics for vertices in both S and R
// without transmitting; ownMsg is the receiver's own message, returned
// when its own key wins (only consulted in the two-stage variant — in
// the single-stage variant the key is the message). The result is
// stored through got/ok. Procs are single-use.
func DetReceiveProc(start uint64, p DetParams, ownKey, ownMsg int, got *int, ok *bool) radio.Proc {
	return &detRecv{p: p, start: start, ownKey: ownKey, ownMsg: ownMsg, got: got, ok: ok}
}

func (r *detRecv) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	if !r.inited {
		r.inited = true
		r.bits = r.p.bits()
		r.base = r.start
		r.own0 = r.ownKey - 1
	}
	switch r.pc {
	case 0:
		return r.round()
	case 1: // feedback of the p0 probe
		if fb.Status != radio.Silence {
			r.heard = true
			return r.take(r.prefix << 1)
		}
		p1 := r.prefix<<1 | 1
		if r.ownKey > 0 && (r.own0>>uint(r.bits-r.x-1)) == p1 {
			return r.take(p1)
		}
		r.pc = 2
		return radio.Listen(r.base + uint64(p1))
	case 2: // feedback of the p1 probe
		if fb.Status != radio.Silence {
			r.heard = true
			return r.take(r.prefix<<1 | 1)
		}
		// No key matches: no sender in N+(v).
		return r.finish()
	case 3: // feedback of the stage-two fetch
		if fb.Status == radio.Received {
			if m, isInt := fb.Payload.(int); isInt {
				*r.got, *r.ok = m, true
			}
		}
		return r.finish()
	default:
		return radio.Halt()
	}
}

// round begins search round x: resolve what the receiver's own key
// contributes, and probe the 0-extension of the live prefix when it
// doesn't settle the bit by itself.
func (r *detRecv) round() radio.Action {
	if r.x >= r.bits {
		return r.conclude()
	}
	p0 := r.prefix << 1
	if r.ownKey > 0 && (r.own0>>uint(r.bits-r.x-1)) == p0 {
		return r.take(p0)
	}
	r.pc = 1
	return radio.Listen(r.base + uint64(p0))
}

// take commits the round's winning prefix and moves to the next round.
func (r *detRecv) take(prefix int) radio.Action {
	r.prefix = prefix
	r.base += uint64(1) << uint(r.x+1)
	r.x++
	r.pc = 0
	return r.round()
}

// conclude runs the post-search logic: deliver the key itself (single-stage), the receiver's own message
// (own key won), or fetch stage two.
func (r *detRecv) conclude() radio.Action {
	key := r.prefix + 1
	if !r.p.TwoStage() {
		// In single-stage, the key is the message itself.
		*r.got, *r.ok = key, true
		return r.finish()
	}
	if r.ownKey > 0 && key == r.ownKey {
		// Our own key is the minimum; the message is our own.
		*r.got, *r.ok = r.ownMsg, true
		return r.finish()
	}
	if !r.heard {
		// Defensive: cannot happen when key != ownKey, but keep the
		// invariant that we only fetch what the channel promised.
		return r.finish()
	}
	// Stage two: fetch the message at the slot indexed by the winning ID.
	r.pc = 3
	return radio.Listen(r.base + uint64(r.prefix))
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

// LocalSendProc returns the LOCAL sender role as an inline step proc.
func LocalSendProc(start uint64, payload any) radio.Proc {
	return &localSend{start: start, payload: payload}
}

func (s *localSend) Step(radio.Channel, radio.Feedback) radio.Action {
	if s.done {
		return radio.Halt()
	}
	s.done = true
	return radio.Transmit(s.start, s.payload)
}

// localRecv is the LOCAL receiver role: one listen in the window's
// single slot. It halts on the step that carries the listen's feedback.
type localRecv struct {
	start    uint64
	got      *[]any
	listened bool
}

// LocalReceiveProc returns the LOCAL receiver role as an inline step
// proc; everything heard is copied out of the engine's delivery buffer
// into *got, reusing its backing array.
func LocalReceiveProc(start uint64, got *[]any) radio.Proc {
	return &localRecv{start: start, got: got}
}

func (r *localRecv) Step(_ radio.Channel, fb radio.Feedback) radio.Action {
	if !r.listened {
		r.listened = true
		return radio.Listen(r.start)
	}
	if heard := fb.Payloads(); len(heard) > 0 {
		*r.got = append((*r.got)[:0], heard...)
	}
	return radio.Halt()
}

// Window is a re-armable SR-communication window: armed as the sender
// or the receiver of one realization for one window, then stepped until
// it halts. It holds the role machines the Proc constructors return by
// value and steps the armed one, so a device that runs window after
// window re-arms one Window in place instead of allocating a machine per
// window. A receiver's delivery stays in the Window (see Delivery).
// Step on a Window that was never armed panics.
type Window struct {
	role radio.Proc // the armed machine, one of the fields below

	localSend localSend
	localRecv localRecv
	cdSend    cdSend
	cdRecv    cdRecv
	decaySend decaySend
	decayRecv decayRecv

	heard []any // LOCAL receiver: everything heard
	got   any   // CD and decay receivers: the delivered message
	ok    bool
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
	w.localRecv = localRecv{start: start, got: &w.heard}
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
	w.cdRecv = cdRecv{p: p, start: start, got: &w.got, ok: &w.ok}
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
	w.decayRecv = decayRecv{p: p, start: start, got: &w.got, ok: &w.ok}
	w.role = &w.decayRecv
}

func (w *Window) clearDelivery() {
	clear(w.heard)
	w.heard = w.heard[:0]
	w.got, w.ok = nil, false
}

// Step steps the armed role machine.
func (w *Window) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	return w.role.Step(ch, fb)
}

// Delivery returns the message a receiver window delivered and true, or
// nil and false when it delivered none. In LOCAL the message is the one
// from the lowest-index transmitting neighbor. It is valid once the
// window has halted, until the Window is armed again.
func (w *Window) Delivery() (any, bool) {
	if len(w.heard) > 0 {
		return w.heard[0], true
	}
	return w.got, w.ok
}
