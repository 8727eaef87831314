// Package dtime implements the Theorem 16 Broadcast algorithm of Section
// 6: near-diameter time O(D^{1+eps} polylog n) with polylog n energy.
//
// The algorithm iterates Partition(beta) on the cluster graph: each
// iteration contracts the current clustering (represented as a good
// labeling plus per-vertex cluster ids and shared random seeds) by a
// 3*beta diameter factor (Lemma 15), and after O(log_{1/3beta} D)
// iterations the cluster graph has polylog diameter, at which point the
// Lemma 10 Broadcast finishes the job.
//
// One round of the cluster-graph protocol is simulated with the paper's
// own machinery:
//
//   - intra-cluster Downward/Upward transmissions use the Lemma 17
//     construction: O(C log n) repetitions of an SR-communication window,
//     where in each repetition a cluster participates with probability
//     1/C decided by its shared random seed, so that with constant
//     probability a receiver's neighborhood contains transmitters of a
//     single cluster (C bounds the number of distinct clusters adjacent
//     to any vertex, Lemma 14(2));
//   - inter-cluster merge offers use a plain SR-communication All-cast
//     (any adjacent active cluster's offer is acceptable);
//   - cluster merges re-root the joining cluster at the vertex that
//     captured the offer and propagate new labels with one Upward and one
//     Downward sweep over the old labeling (Section 6.4).
//
// Epochs pipeline decisions with one epoch of lag: offers captured in
// epoch t are gathered to the old root in epoch t and announced (with
// relabeling) in epoch t+1.
//
// A device is one flat step machine that walks its phases: its first
// step draws the cluster seed, each partition iteration runs a
// continuation chain (the Lemma 17 sweeps), and the closing Lemma 10
// Broadcast runs on a cluster.Broadcaster armed in place. A run with no
// partition iteration (a star) therefore allocates only the devices'
// state under CD and No-CD.
package dtime

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/srcomm"
)

// Params configures a Theorem 16 run; all fields are global knowledge.
type Params struct {
	// Beta is the partition rate (0 < Beta <= 1/4 recommended).
	Beta float64
	// Iterations is the number of cluster-graph partition iterations K.
	Iterations int
	// EpochsPerIter is T = Theta(log n / beta).
	EpochsPerIter int
	// C bounds the distinct clusters adjacent to any vertex (Lemma 14(2)).
	C int
	// CL is the repetition count of each Lemma 17 window (Theta(C log n)).
	CL int
	// FinalD is the diameter bound for the closing Lemma 10 Broadcast.
	FinalD int
	// SR is the base SR-communication window.
	SR cluster.Spec
	// layer bounds per iteration: lb[0] = 1 (initial singletons), lb[i] =
	// label bound after iteration i.
	lb []int
}

// NewParams derives the standard parameterization. diam is the known
// diameter bound D (use n when unknown); eps maps to beta =
// log^{-1/eps} n as in Section 6.1, clamped to [1/16, 1/4].
func NewParams(model radio.Model, n, delta, diam int, eps float64) (Params, error) {
	if n < 1 {
		return Params{}, fmt.Errorf("dtime: n = %d", n)
	}
	if eps <= 0 || eps > 1 {
		eps = 0.5
	}
	logN := float64(rng.Log2Ceil(n) + 1)
	beta := math.Pow(logN, -1/eps)
	if beta > 0.25 {
		beta = 0.25
	}
	if beta < 1.0/16 {
		beta = 1.0 / 16
	}
	return newParams(model, n, delta, diam, beta)
}

// NewParamsBeta builds parameters with an explicit beta, for experiments
// sweeping the tradeoff directly.
func NewParamsBeta(model radio.Model, n, delta, diam int, beta float64) (Params, error) {
	if beta <= 0 || beta > 0.25 {
		return Params{}, fmt.Errorf("dtime: beta %v outside (0, 1/4]", beta)
	}
	return newParams(model, n, delta, diam, beta)
}

func newParams(model radio.Model, n, delta, diam int, beta float64) (Params, error) {
	if diam < 1 {
		diam = 1
	}
	logN := rng.Log2Ceil(n) + 1
	shrink := math.Log(1 / (3 * beta))
	if shrink < 0.1 {
		shrink = 0.1
	}
	// Iterate until the estimated cluster-graph diameter reaches the
	// polylog floor (the Lemma 15 analysis permits any Theta(polylog)
	// floor; the constant here keeps K > 0 on experiment-scale graphs),
	// or until the estimate stops shrinking: at beta = 1/4 the update
	// has fixed points (8 to 11) above the floor of small graphs, and
	// another iteration there only lengthens the schedule.
	floor := logN + 2
	k := 0
	d := float64(diam)
	for d > float64(floor) && k < 64 {
		next := math.Ceil(3*beta*d) + 2
		if next >= d {
			break
		}
		d = next
		k++
	}
	t := int(math.Ceil(2 * float64(logN) / beta))
	if t < 4 {
		t = 4
	}
	c := 2*int(math.Ceil(float64(logN)/shrink*math.Ln2)) + 4
	if c > n {
		c = n
	}
	p := Params{
		Beta:          beta,
		Iterations:    k,
		EpochsPerIter: t,
		C:             c,
		CL:            2*c + 2*logN,
		FinalD:        int(d) + 1,
		SR:            cluster.NewSpec(model, n, delta),
		lb:            make([]int, k+1),
	}
	p.lb[0] = 1
	for i := 1; i <= k; i++ {
		p.lb[i] = (2*t+2)*p.lb[i-1] + t + 2
		// Labels are bounded by n-1 on any graph (they strictly increase
		// along paths of distinct vertices), so windows beyond n are
		// never used.
		if p.lb[i] > n {
			p.lb[i] = n
		}
	}
	if p.Slots() > 1<<55 {
		return Params{}, fmt.Errorf("dtime: schedule of %d slots is impractical (D=%d, beta=%v)",
			p.Slots(), diam, beta)
	}
	return p, nil
}

// LayerBound returns the label bound after all iterations.
func (p Params) LayerBound() int { return p.lb[p.Iterations] }

// Tune overrides the protocol constants (for experiments trading failure
// probability against wall time) and recomputes the derived layer bounds.
// n is the network size used to cap the bounds; non-positive arguments
// keep the current values. iters additionally forces the partition
// iteration count (useful on small graphs whose diameter is already
// below the polylog floor).
func (p Params) Tune(n, epochs, c, cl, iters int) Params {
	if epochs > 0 {
		p.EpochsPerIter = epochs
	}
	if c > 0 {
		p.C = c
	}
	if cl > 0 {
		p.CL = cl
	}
	if iters > 0 {
		p.Iterations = iters
	}
	lb := make([]int, p.Iterations+1)
	lb[0] = 1
	for i := 1; i <= p.Iterations; i++ {
		lb[i] = (2*p.EpochsPerIter+2)*lb[i-1] + p.EpochsPerIter + 2
		if lb[i] > n {
			lb[i] = n
		}
	}
	p.lb = lb
	return p
}

// sweepSlots is the slot cost of one Lemma 17 sweep over old labels with
// bound lb: (lb-1) windows of CL repetitions each.
func (p Params) sweepSlots(lb int) uint64 {
	if lb <= 1 {
		return 0
	}
	return uint64(lb-1) * uint64(p.CL) * p.SR.Slots()
}

// epochSlots is the slot cost of one epoch at iteration i (label bound
// lb): announce + relabel-up + relabel-down + offers + gather.
func (p Params) epochSlots(lb int) uint64 {
	return 3*p.sweepSlots(lb) + p.SR.Slots() + p.sweepSlots(lb)
}

// iterSlots is the slot cost of one partition iteration at label bound
// lb: T+1 epochs (the last announces the final gathered joins) plus one
// healing relabel pass.
func (p Params) iterSlots(lb int) uint64 {
	return uint64(p.EpochsPerIter+1)*p.epochSlots(lb) + 2*p.sweepSlots(lb)
}

// Slots returns the full schedule length: K partition iterations plus the
// closing Lemma 10 Broadcast.
func (p Params) Slots() uint64 {
	total := uint64(0)
	for i := 0; i < p.Iterations; i++ {
		total += p.iterSlots(p.lb[i])
	}
	return total + cluster.BroadcastSlots(p.SR, p.LayerBound(), p.FinalD)
}

// message payloads.
type offerMsg struct {
	newCID   int
	newLayer int
	newSeed  uint64
}

type gatherMsg struct {
	oldCID   int
	capturer int
	offer    offerMsg
}

type announceMsg struct {
	oldCID   int
	activate bool
	capturer int
	offer    offerMsg
}

type relabelMsg struct {
	oldCID   int
	newLayer int
}

// devState is a device's step machine and state: its cluster
// bookkeeping, the closing Broadcaster and the phase it runs, allocated
// once per run. It holds the device's only copy of Params.
type devState struct {
	idx      int
	p        Params
	isSource bool
	msg      any
	out      *DeviceResult

	oldCID   int
	oldLayer int
	oldSeed  uint64

	active   bool // member of an already re-clustered cluster
	joined   bool // cluster merged but this member may lack a layer yet
	newCID   int
	newLayer int // -1 until known
	newSeed  uint64

	captured     *offerMsg // offer captured in the current epoch
	pendingJoin  *gatherMsg
	announceBody *announceMsg // announcement relayed through the cluster
	iter         int          // current partition iteration index

	dDelta float64 // root only: exponential shift
	start  int     // root only: start epoch

	// win runs every Lemma 17 repetition and offer window the device
	// takes part in. The first partition iteration allocates it, so a
	// run with no iteration allocates none.
	win   *srcomm.Window
	final cluster.Broadcaster // the closing Lemma 10 Broadcast

	phase int        // the running phase (phaseInit, ...)
	t     uint64     // first slot of the running phase
	k     radio.Cont // the running partition iteration's chain
}

// coin reports whether the cluster with the given seed participates in
// the Lemma 17 repetition anchored at absolute slot ws (probability 1/C).
// Every member derives the same coin.
func (p Params) coin(seed uint64, ws uint64) bool {
	r := rng.New(rng.Child(seed, ws))
	return r.IntN(p.C) == 0
}

// sweepCont emits one Lemma 17 sweep over old labels, resuming with k.
// dir is +1 (downward: senders at layer l, receivers at l+1) or -1
// (upward). Each window is CL repetitions of an SR window. The
// callbacks decide participation and handle acceptance; send returns
// the payload and the sampling seed for the device's cluster. The sweep
// is sparse (cluster.SweepCont): only the device's receive and send
// windows are built, and participation is evaluated at each of their
// repetitions' start, which fixes the event stream the port pin checks
// slot for slot.
func (s *devState) sweepCont(start uint64, dir int,
	send func() (any, uint64, bool), recv func(m any), k radio.Cont) radio.Cont {
	return radio.Eval(func() radio.Cont {
		p := &s.p
		lb := p.lb[s.iter]
		if lb <= 1 {
			return k
		}
		w := p.SR.Slots()
		window := func(ws uint64, sl, rl int, next radio.Cont) radio.Cont {
			var rep func(c int) radio.Cont
			rep = func(c int) radio.Cont {
				if c == p.CL {
					return next
				}
				rs := ws + uint64(c)*w
				after := radio.Eval(func() radio.Cont { return rep(c + 1) })
				return radio.Eval(func() radio.Cont {
					payload, seed, isSender := any(nil), uint64(0), false
					if s.oldLayer == sl {
						payload, seed, isSender = send()
					}
					switch {
					case isSender && p.coin(seed, rs):
						return p.SR.SendCont(s.win, rs, payload, after)
					case s.oldLayer == rl:
						return p.SR.ReceiveCont(s.win, rs, recv, after)
					default:
						return p.SR.SkipCont(rs, after)
					}
				})
			}
			return rep(0)
		}
		return cluster.SweepCont(start, uint64(p.CL)*w, lb-1, dir > 0, s.oldLayer, window, k)
	})
}

// DeviceResult is one device's final view.
type DeviceResult struct {
	Informed bool
	Msg      any
	Label    int
	Cluster  int
}

// Proc returns the device step machine implementing Theorem 16, its
// devState, which holds the closing Broadcaster. Its first private draw
// (the shared cluster seed) happens at its first step.
func Proc(p Params, isSource bool, msg any, out *DeviceResult) radio.Proc {
	return &devState{p: p, isSource: isSource, msg: msg, out: out, newLayer: -1, newCID: -1}
}

// Device phases, in the order Step runs them.
const (
	phaseInit      = iota // the first step: identity and cluster seed
	phaseIterate          // a partition iteration runs its chain k
	phaseBroadcast        // the closing Lemma 10 Broadcast runs on final
	phaseDone
)

// Step walks the device's phases. Each phase starts in the step in
// which the previous one ended, on that step's Feedback: an iteration's
// chain ends with its clustering handover, and the next iteration or
// the closing Broadcast starts right after it.
func (s *devState) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	p := &s.p
	for {
		switch s.phase {
		case phaseInit:
			s.idx, s.oldCID = ch.Index(), ch.Index()
			s.oldSeed = ch.Rand().Uint64()
			s.enter(0, 1)
		case phaseIterate:
			act, next := s.k(ch, fb)
			if act.Kind != radio.ActHalt {
				s.k = next
				return act
			}
			// The chain set s.iter at its first step.
			s.enter(s.iter+1, s.t+p.iterSlots(p.lb[s.iter]))
		case phaseBroadcast:
			if act := s.final.Step(ch, fb); act.Kind != radio.ActHalt {
				return act
			}
			s.out.Informed, s.out.Msg = s.final.Has, s.final.Msg
			s.out.Label, s.out.Cluster = s.oldLayer, s.oldCID
			s.phase = phaseDone
		default:
			return radio.Halt()
		}
	}
}

// enter starts partition iteration iter at slot t, or, once iter reaches
// Iterations, the closing Broadcast over the final clustering, which it
// reads here.
func (s *devState) enter(iter int, t uint64) {
	p := &s.p
	s.t = t
	if iter < p.Iterations {
		s.phase, s.k = phaseIterate, s.iterationCont(iter, t)
		return
	}
	s.phase, s.k = phaseBroadcast, nil
	s.final = cluster.Broadcaster{SR: p.SR, Layers: p.LayerBound(),
		Label: s.oldLayer, Has: s.isSource, Msg: s.msg}
	s.final.Arm(t, p.FinalD)
}

// iterationCont emits one Partition(beta) round on the cluster graph:
// per-iteration reset and the root's exponential draw at round start,
// T+1 pipelined epochs, the healing relabel pass, and the old/new
// clustering handover, on whose step the chain halts.
func (s *devState) iterationCont(iter int, start uint64) radio.Cont {
	return radio.EvalCh(func(ch radio.Channel) radio.Cont {
		p := &s.p
		s.iter = iter
		if s.win == nil {
			s.win = new(srcomm.Window)
		}
		// Reset per-iteration state; the previous clustering is "old".
		s.active, s.joined = false, false
		s.newCID, s.newLayer, s.newSeed = -1, -1, 0
		s.captured, s.pendingJoin, s.announceBody = nil, nil, nil
		if s.oldCID == s.idx {
			s.dDelta = rng.Exponential(ch.Rand(), p.Beta)
			s.start = p.EpochsPerIter - int(math.Ceil(s.dDelta))
			if s.start < 1 {
				s.start = 1
			}
		}
		sw := p.sweepSlots(p.lb[iter])
		w := p.SR.Slots()
		es := p.epochSlots(p.lb[iter])
		var epochC func(epoch int, t uint64) radio.Cont
		epochC = func(epoch int, t uint64) radio.Cont {
			if epoch > p.EpochsPerIter+1 {
				// Healing pass for relabel stragglers, then the new
				// clustering becomes the old one for the next iteration.
				return s.relabelUpCont(t, s.relabelDownCont(t+sw, radio.Do(func() {
					if s.newLayer < 0 {
						// Fallback (probability 1/poly(n)): keep the old
						// identity as a singleton-style remnant so the
						// labeling stays good locally.
						s.newCID, s.newLayer, s.newSeed = s.oldCID, s.oldLayer, s.oldSeed
					}
					s.oldCID, s.oldLayer, s.oldSeed = s.newCID, s.newLayer, s.newSeed
				}, nil)))
			}
			return s.announcePhaseCont(t, epoch,
				s.relabelUpCont(t+sw,
					s.relabelDownCont(t+2*sw,
						s.offerPhaseCont(t+3*sw, epoch,
							s.gatherPhaseCont(t+3*sw+w,
								radio.Eval(func() radio.Cont { return epochC(epoch+1, t+es) }))))))
		}
		return epochC(1, start)
	})
}

// announcePhaseCont: the old root announces either self-activation or
// the gathered join decision; members adopt the new cluster identity.
// Roots of singleton clusters act locally (no windows exist at lb=1).
func (s *devState) announcePhaseCont(start uint64, epoch int, k radio.Cont) radio.Cont {
	p := &s.p
	return radio.Do(func() {
		isRoot := s.oldCID == s.idx
		if isRoot && !s.active && !s.joined {
			switch {
			case s.pendingJoin != nil:
				g := s.pendingJoin
				s.joined = true
				s.newCID = g.offer.newCID
				s.newSeed = g.offer.newSeed
				if g.capturer == s.idx {
					s.newLayer = g.offer.newLayer + 1
					s.active = true
				}
				s.announceBody = &announceMsg{oldCID: s.oldCID, capturer: g.capturer, offer: g.offer}
			case s.start <= epoch && epoch <= p.EpochsPerIter:
				// Self-activate: the whole old cluster becomes a new cluster.
				s.active, s.joined = true, true
				s.newCID = s.oldCID
				s.newLayer = s.oldLayer
				s.newSeed = rng.Child(s.oldSeed, uint64(s.iter)+0x5eed)
				s.announceBody = &announceMsg{oldCID: s.oldCID, activate: true}
			}
		}
	}, s.sweepCont(start, +1, // Downward sweep: members holding the announcement relay it.
		func() (any, uint64, bool) {
			if s.announceBody != nil {
				return *s.announceBody, s.oldSeed, true
			}
			return nil, 0, false
		},
		func(m any) {
			am, ok := m.(announceMsg)
			if !ok || am.oldCID != s.oldCID || s.joined {
				return
			}
			s.joined = true
			s.announceBody = &am
			if am.activate {
				s.active = true
				s.newCID = s.oldCID
				s.newLayer = s.oldLayer
				s.newSeed = rng.Child(s.oldSeed, uint64(s.iter)+0x5eed)
				return
			}
			s.newCID = am.offer.newCID
			s.newSeed = am.offer.newSeed
			if am.capturer == s.idx {
				s.newLayer = am.offer.newLayer + 1
				s.active = true
			}
		}, k))
}

// relabelUpCont / relabelDownCont: propagate new layers through a joined
// cluster along the old labeling (Section 6.4).
func (s *devState) relabelUpCont(start uint64, k radio.Cont) radio.Cont {
	return s.sweepCont(start, -1, s.sendRelabel, s.acceptRelabel, k)
}

func (s *devState) relabelDownCont(start uint64, k radio.Cont) radio.Cont {
	return s.sweepCont(start, +1, s.sendRelabel, s.acceptRelabel, k)
}

func (s *devState) sendRelabel() (any, uint64, bool) {
	if s.joined && s.newLayer >= 0 {
		return relabelMsg{oldCID: s.oldCID, newLayer: s.newLayer}, s.oldSeed, true
	}
	return nil, 0, false
}

func (s *devState) acceptRelabel(m any) {
	rm, ok := m.(relabelMsg)
	if !ok || rm.oldCID != s.oldCID || !s.joined || s.newLayer >= 0 {
		return
	}
	s.newLayer = rm.newLayer + 1
	s.active = true
}

// offerPhaseCont: active members advertise their new cluster; members of
// still-unclustered clusters capture any offer (plain All-cast window).
func (s *devState) offerPhaseCont(start uint64, epoch int, k radio.Cont) radio.Cont {
	p := &s.p
	return radio.Eval(func() radio.Cont {
		switch {
		case s.active && epoch <= p.EpochsPerIter:
			return p.SR.SendCont(s.win, start,
				offerMsg{newCID: s.newCID, newLayer: s.newLayer, newSeed: s.newSeed}, k)
		case !s.joined && s.captured == nil && epoch <= p.EpochsPerIter:
			return p.SR.ReceiveCont(s.win, start, func(m any) {
				if om, isOffer := m.(offerMsg); isOffer {
					s.captured = &om
				}
			}, k)
		default:
			return p.SR.SkipCont(start, k)
		}
	})
}

// gatherPhaseCont: captured offers are relayed up the old cluster to its
// root, which records the first one as the pending join decision.
func (s *devState) gatherPhaseCont(start uint64, k radio.Cont) radio.Cont {
	var relay *gatherMsg
	return radio.Do(func() {
		relay = nil
		if s.captured != nil && !s.joined {
			relay = &gatherMsg{oldCID: s.oldCID, capturer: s.idx, offer: *s.captured}
		}
	}, s.sweepCont(start, -1,
		func() (any, uint64, bool) {
			if relay != nil {
				return *relay, s.oldSeed, true
			}
			return nil, 0, false
		},
		func(m any) {
			gm, ok := m.(gatherMsg)
			if !ok || gm.oldCID != s.oldCID || s.joined {
				return
			}
			relay = &gm
		},
		radio.Do(func() {
			// The root records the decision; a captured offer at the root
			// itself also counts.
			if s.oldCID == s.idx && !s.joined && s.pendingJoin == nil && relay != nil {
				s.pendingJoin = relay
			}
			s.captured = nil
		}, k)))
}
