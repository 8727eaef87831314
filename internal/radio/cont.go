package radio

// This file exports the continuation-combinator vocabulary for writing
// structured protocols against the step ABI. detcast, cdmerge,
// partition and dtime's partition iterations build on these forms.
//
// The discipline the combinators encode: the slot schedule is a pure
// function of the protocol parameters, but every read of mutable device
// state is deferred into an Eval thunk that runs at its window's start.
// That fixes when each read happens, and so the event stream the
// protocol emits: the stream its port pin checks.
// Sleeps emit no events and draw no randomness, so a protocol covers the
// windows a device sits out with one Sleep instead of building them:
// cluster.SweepCont builds a sweep's two live windows, detcast's and
// cdmerge's tree passes build a device's receive and send steps only,
// and detcast decides at each phase's start (an Eval) whether the
// device takes part, building nothing for a phase it sits out.
//
// Every combinator allocates a closure, so a chain costs allocations in
// proportion to its length. A phase that runs many windows of one shape
// is cheaper as a flat Proc that re-arms one sub-machine in place,
// embedded in the chain with one ProcCont (cdmerge runs its closing
// cluster.Broadcaster that way), or as a flat Proc outright: coloring's
// setup, and the iterclust and dtime devices, which step their phases
// directly and arm a cluster.Refiner or Broadcaster in place for each.
// Every SR-communication window runs that way: the protocol re-arms the
// device's one srcomm.Window and embeds it with ProcCont, so a window
// allocates no machine.

// Then performs a, then resumes with k.
func Then(a Action, k Cont) Cont {
	return func(Channel, Feedback) (Action, Cont) { return a, k }
}

// Recv listens at slot and hands the feedback to f, which returns the
// continuation to resume with (nil halts).
func Recv(slot uint64, f func(Feedback) Cont) Cont {
	return func(Channel, Feedback) (Action, Cont) {
		return Listen(slot), bindFeedback(f)
	}
}

// bindFeedback adapts a feedback consumer into a continuation.
func bindFeedback(f func(Feedback) Cont) Cont {
	return func(ch Channel, fb Feedback) (Action, Cont) {
		k := f(fb)
		if k == nil {
			return Halt(), nil
		}
		return k(ch, fb)
	}
}

// Eval defers building the continuation until the moment it runs — the
// mechanism that keeps every read of mutable device state at its
// window's start even though the surrounding continuation tree is
// assembled eagerly, which fixes the event stream the port pins check.
// A phase that decides at its start what to build is an Eval too. A nil
// result halts.
func Eval(f func() Cont) Cont {
	return func(ch Channel, fb Feedback) (Action, Cont) {
		k := f()
		if k == nil {
			return Halt(), nil
		}
		return k(ch, fb)
	}
}

// EvalCh is Eval with access to the channel handle, for deferred state
// that needs the device's identity or random stream (Index, AssignedID,
// Rand). A nil result halts.
func EvalCh(f func(ch Channel) Cont) Cont {
	return func(ch Channel, fb Feedback) (Action, Cont) {
		k := f(ch)
		if k == nil {
			return Halt(), nil
		}
		return k(ch, fb)
	}
}

// Do runs a side effect, then resumes with k.
func Do(f func(), k Cont) Cont {
	return Eval(func() Cont {
		f()
		return k
	})
}

// ProcCont drives a sub-proc to completion inside a continuation chain,
// then resumes with k — the nesting adapter that lets a continuation
// protocol run an armed srcomm.Window as an SR-communication window of
// its schedule. The sub-proc's halt is consumed (it ends the
// sub-window, not the device), and k resumes with the zero Feedback. A
// sub-proc may halt on the step that carries its last listen's feedback
// (srcomm's LOCAL receiver does); that feedback was the sub-proc's to
// consume, not k's.
func ProcCont(p Proc, k Cont) Cont {
	var c Cont
	c = func(ch Channel, fb Feedback) (Action, Cont) {
		act := p.Step(ch, fb)
		if act.Kind == ActHalt {
			if k == nil {
				return Halt(), nil
			}
			return k(ch, Feedback{})
		}
		return act, c
	}
	return c
}
