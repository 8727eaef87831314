package cluster

// Continuation forms of the SR-communication windows and the Lemma 10
// Broadcaster, for protocols ported to the inline step ABI (radio.Proc).
// Each form occupies exactly the window its blocking counterpart does
// and evaluates mutable device state (roles, Has/Msg) at window start,
// so a ported protocol produces the byte-identical slot-level event
// stream of its blocking original — the property the cdmerge, iterclust
// and dtime port pins check.
//
// Layered sweeps are sparse. A device at layer L can act in at most two
// windows of a sweep: the one whose receiver layer is L and the one
// right after it, whose sender layer is L. SweepCont reads L once at
// sweep start, builds only those two windows and covers the rest of the
// sweep with one Sleep on each side. Sleeps emit no events and draw no
// randomness, so the event stream is the one a window-by-window sweep
// produces, and a sweep costs O(1) continuations per device instead of
// O(Layers).

import (
	"repro/internal/labeling"
	"repro/internal/radio"
	"repro/internal/srcomm"
)

// SendCont participates in the window at start as a sender, then
// resumes with k. payload is read at window start.
func (s Spec) SendCont(start uint64, payload func() any, k radio.Cont) radio.Cont {
	return radio.Eval(func() radio.Cont {
		m := payload()
		switch s.Model {
		case radio.Local:
			return radio.ProcCont(srcomm.LocalSendProc(start, m), k)
		case radio.CD, radio.CDStar:
			return radio.ProcCont(srcomm.CDSendProc(start, s.CD, m), k)
		default:
			return radio.ProcCont(srcomm.DecaySendProc(start, s.Decay, m), k)
		}
	})
}

// ReceiveCont participates in the window as a receiver; done observes
// the delivery (message, ok) when the window ends, before k resumes.
func (s Spec) ReceiveCont(start uint64, done func(any, bool), k radio.Cont) radio.Cont {
	return radio.Eval(func() radio.Cont {
		switch s.Model {
		case radio.Local:
			var got []any
			return radio.ProcCont(srcomm.LocalReceiveProc(start, &got),
				radio.Do(func() {
					if len(got) > 0 {
						done(got[0], true)
					} else {
						done(nil, false)
					}
				}, k))
		case radio.CD, radio.CDStar:
			var m any
			var ok bool
			return radio.ProcCont(srcomm.CDReceiveProc(start, s.CD, &m, &ok),
				radio.Do(func() { done(m, ok) }, k))
		default:
			var m any
			var ok bool
			return radio.ProcCont(srcomm.DecayReceiveProc(start, s.Decay, &m, &ok),
				radio.Do(func() { done(m, ok) }, k))
		}
	})
}

// SkipCont advances a non-participant's clock to the end of the window,
// then resumes with k.
func (s Spec) SkipCont(start uint64, k radio.Cont) radio.Cont {
	return radio.Then(radio.Sleep(start+s.Slots()-1), k)
}

// SweepCont emits one layered sweep of nw windows of w slots from start,
// as seen by a device at layer label, then resumes with k. In a down
// sweep window i links sender layer i to receiver layer i+1; in an up
// sweep it links sender layer nw-i to receiver layer nw-1-i. Only the
// window whose receiver layer is label and the next one, whose sender
// layer is label, are built, as win(ws, send, recv, next); one Sleep on
// each side covers the others. win must defer every read of mutable
// device state to window start (an Eval), since the two windows are
// assembled together at sweep start.
func SweepCont(start, w uint64, nw int, down bool, label int,
	win func(ws uint64, send, recv int, k radio.Cont) radio.Cont, k radio.Cont) radio.Cont {
	first := label - 1 // the window whose receiver layer is label
	if !down {
		first = nw - 1 - label
	}
	lo := min(max(first, 0), nw) // live windows [lo, hi), empty when label is out of range
	hi := max(min(first+2, nw), lo)
	next := k
	if hi < nw {
		next = radio.Then(radio.Sleep(start+uint64(nw)*w-1), k)
	}
	for i := hi - 1; i >= lo; i-- {
		send, recv := i, i+1
		if !down {
			send, recv = nw-i, nw-1-i
		}
		next = win(start+uint64(i)*w, send, recv, next)
	}
	if lo > 0 {
		next = radio.Then(radio.Sleep(start+uint64(lo)*w-1), next)
	}
	return next
}

// window emits one sweep window: the device's role is chosen at window
// start from the Broadcaster's current state.
func (b *Broadcaster) window(ws uint64, sendLayer, recvLayer int, k radio.Cont) radio.Cont {
	return radio.Eval(func() radio.Cont {
		switch {
		case b.Has && b.Label == sendLayer:
			return b.SR.SendCont(ws, func() any { return b.Msg }, k)
		case !b.Has && b.Label == recvLayer:
			return b.SR.ReceiveCont(ws, func(m any, ok bool) {
				if ok {
					b.Has, b.Msg = true, m
				}
			}, k)
		default:
			return b.SR.SkipCont(ws, k)
		}
	})
}

// DownCastCont is the continuation form of DownCast: windows i =
// 0..Layers-2, holders at layer i send, non-holders at i+1 receive.
func (b *Broadcaster) DownCastCont(start uint64, k radio.Cont) radio.Cont {
	return b.sweepCont(start, true, k)
}

// UpCastCont is the continuation form of UpCast: windows i =
// Layers-1..1, holders at layer i send, non-holders at i-1 receive.
func (b *Broadcaster) UpCastCont(start uint64, k radio.Cont) radio.Cont {
	return b.sweepCont(start, false, k)
}

// sweepCont reads the device's layer at sweep start and emits its
// sparse sweep. A single-layer sweep has no windows and costs nothing.
func (b *Broadcaster) sweepCont(start uint64, down bool, k radio.Cont) radio.Cont {
	if b.Layers <= 1 {
		return k
	}
	return radio.Eval(func() radio.Cont {
		return SweepCont(start, b.SR.Slots(), b.Layers-1, down, b.Label, b.window, k)
	})
}

// AllCastCont is the continuation form of AllCast: one window, holders
// send, non-holders receive.
func (b *Broadcaster) AllCastCont(start uint64, k radio.Cont) radio.Cont {
	return radio.Eval(func() radio.Cont {
		if b.Has {
			return b.SR.SendCont(start, func() any { return b.Msg }, k)
		}
		return b.SR.ReceiveCont(start, func(m any, ok bool) {
			if ok {
				b.Has, b.Msg = true, m
			}
		}, k)
	})
}

// BroadcastCont is the continuation form of Broadcast: Up-cast, d rounds
// of (Down-cast, All-cast, Up-cast), final Down-cast, then k. It
// occupies exactly BroadcastSlots(SR, Layers, d) slots from start.
func (b *Broadcaster) BroadcastCont(start uint64, d int, k radio.Cont) radio.Cont {
	w := b.SR.Slots()
	sweep := uint64(maxInt(b.Layers-1, 0)) * w
	var round func(r int, t uint64) radio.Cont
	round = func(r int, t uint64) radio.Cont {
		if r == d {
			return b.DownCastCont(t, k)
		}
		return b.DownCastCont(t,
			b.AllCastCont(t+sweep,
				b.UpCastCont(t+sweep+w,
					round(r+1, t+2*sweep+w))))
	}
	return b.UpCastCont(start, round(0, start+sweep))
}

// refineWindow emits one refinement sweep window: labeled devices at old
// layer sendLayer broadcast their new label, unlabeled devices at old
// layer recvLayer try to adopt. Roles are read at window start.
func (r *Refiner) refineWindow(ws uint64, sendLayer, recvLayer int, k radio.Cont) radio.Cont {
	return radio.Eval(func() radio.Cont {
		switch {
		case r.New != labeling.Bottom && r.Old == sendLayer:
			return r.SR.SendCont(ws, func() any { return r.New }, k)
		case r.New == labeling.Bottom && r.Old == recvLayer:
			return r.SR.ReceiveCont(ws, func(m any, ok bool) {
				if ok {
					if lab, isInt := m.(int); isInt {
						r.New = lab + 1
					}
				}
			}, k)
		default:
			return r.SR.SkipCont(ws, k)
		}
	})
}

// DownSweepCont is the continuation form of downSweep: windows i =
// 0..Layers-2 over old layers, senders at i, adopters at i+1.
func (r *Refiner) DownSweepCont(start uint64, k radio.Cont) radio.Cont {
	return r.sweepCont(start, true, k)
}

// UpSweepCont is the continuation form of upSweep: windows i =
// Layers-1..1, senders at i, adopters at i-1.
func (r *Refiner) UpSweepCont(start uint64, k radio.Cont) radio.Cont {
	return r.sweepCont(start, false, k)
}

// sweepCont reads the device's old layer at sweep start and emits its
// sparse refinement sweep. A single-layer sweep has no windows and costs
// nothing.
func (r *Refiner) sweepCont(start uint64, down bool, k radio.Cont) radio.Cont {
	if r.Layers <= 1 {
		return k
	}
	return radio.Eval(func() radio.Cont {
		return SweepCont(start, r.SR.Slots(), r.Layers-1, down, r.Old, r.refineWindow, k)
	})
}

// AllWindowCont is the continuation form of allWindow: one window where
// every labeled vertex sends and every unlabeled vertex tries to adopt.
func (r *Refiner) AllWindowCont(start uint64, k radio.Cont) radio.Cont {
	return radio.Eval(func() radio.Cont {
		if r.New != labeling.Bottom {
			return r.SR.SendCont(start, func() any { return r.New }, k)
		}
		return r.SR.ReceiveCont(start, func(m any, ok bool) {
			if ok {
				if lab, isInt := m.(int); isInt {
					r.New = lab + 1
				}
			}
		}, k)
	})
}

// RefineCont is the continuation form of Refine: s rounds of (Down-cast,
// All-cast, Up-cast) plus a final Down-cast, bracketed by the Step 1
// root coin at entry and the keep-old-label fallback at exit. It
// occupies exactly RefineSlots(SR, Layers, s) slots from start.
// becomeRoot must already be decided by the caller at assembly time
// (the coin is drawn at refinement start, matching the blocking form).
func (r *Refiner) RefineCont(start uint64, s int, becomeRoot bool, k radio.Cont) radio.Cont {
	w := r.SR.Slots()
	sweep := uint64(maxInt(r.Layers-1, 0)) * w
	fallback := radio.Do(func() {
		if r.New == labeling.Bottom {
			r.New = r.Old
		}
	}, k)
	var round func(i int, t uint64) radio.Cont
	round = func(i int, t uint64) radio.Cont {
		if i == s {
			return r.DownSweepCont(t, fallback)
		}
		return r.DownSweepCont(t,
			r.AllWindowCont(t+sweep,
				r.UpSweepCont(t+sweep+w,
					round(i+1, t+2*sweep+w))))
	}
	return radio.Do(func() {
		r.New = labeling.Bottom
		if becomeRoot && r.Old == 0 {
			r.New = 0
		}
	}, round(0, start))
}
