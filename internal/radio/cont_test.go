package radio

import (
	"testing"

	"repro/internal/graph"
)

// These tests exercise the Cont combinators in isolation — sequencing,
// feedback binding, and the deferred-state-read discipline — without
// any protocol on top, so a combinator regression points here instead
// of at a ported package's trace test.

// runConts runs one continuation per vertex of g and returns the result.
func runConts(t *testing.T, g *graph.Graph, model Model, mk func(v int) Cont) *Result {
	t.Helper()
	devs := make([]Device, g.N())
	for v := range devs {
		v := v
		devs[v].Proc = ContProc(func(Channel) Cont { return mk(v) })
	}
	res, err := RunDevices(Config{Graph: g, Model: model, Seed: 1}, devs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestThenSequencing pins that a Then chain performs its actions in
// order, one per scheduler step, and that a nil tail halts.
func TestThenSequencing(t *testing.T) {
	g := graph.Path(2)
	var order []string
	res := runConts(t, g, Local, func(v int) Cont {
		if v != 0 {
			return nil // ContProc treats a nil initial chain as halt
		}
		return Then(Sleep(1),
			Do(func() { order = append(order, "after-sleep") },
				Then(Transmit(2, "x"),
					Do(func() { order = append(order, "after-tx") },
						Then(Listen(3), nil)))))
	})
	if len(order) != 2 || order[0] != "after-sleep" || order[1] != "after-tx" {
		t.Fatalf("order = %v", order)
	}
	if res.Transmits[0] != 1 || res.Listens[0] != 1 {
		t.Errorf("counters = %d tx %d listen", res.Transmits[0], res.Listens[0])
	}
	if res.Energy[0] != 2 {
		t.Errorf("energy = %d, want 2 (sleep is free)", res.Energy[0])
	}
}

// TestRecvBindsFeedback checks Recv hands the listen's feedback to its
// binder, and that the binder's returned continuation (or nil) decides
// what happens next.
func TestRecvBindsFeedback(t *testing.T) {
	g := graph.Path(2)
	var got Feedback
	var second Feedback
	runConts(t, g, Local, func(v int) Cont {
		if v == 1 {
			return Then(Transmit(1, "m1"), Then(Transmit(2, "m2"), nil))
		}
		return Recv(1, func(fb Feedback) Cont {
			got = fb
			// Chain a second Recv from inside the binder.
			return Recv(2, func(fb Feedback) Cont {
				second = fb
				return nil
			})
		})
	})
	if got.Status != Received || got.Payload != "m1" {
		t.Errorf("first feedback = %+v", got)
	}
	if second.Status != Received || second.Payload != "m2" {
		t.Errorf("second feedback = %+v", second)
	}
}

// TestEvalDefersStateRead pins the discipline the combinator file
// documents: the continuation tree is assembled eagerly, but an Eval
// thunk reads mutable state at its window's start — not at assembly
// time.
func TestEvalDefersStateRead(t *testing.T) {
	g := graph.Path(2)
	heard := false
	var relayed any
	runConts(t, g, Local, func(v int) Cont {
		if v == 1 {
			return Then(Transmit(1, "late"), nil)
		}
		// Assembled before slot 1's feedback exists: if Eval ran its
		// thunk eagerly, the relay branch would see heard == false.
		return Recv(1, func(fb Feedback) Cont {
			return Do(func() { heard = fb.Status == Received; relayed = fb.Payload }, Eval(func() Cont {
				if !heard {
					return nil
				}
				return Then(Transmit(2, relayed), nil)
			}))
		})
	})
	if !heard {
		t.Fatal("receiver heard nothing")
	}
	if relayed != "late" {
		t.Errorf("relayed = %v", relayed)
	}
}

// TestEvalChSeesDeviceIdentity checks EvalCh runs with the device's own
// channel handle — clock and random stream included — at its scheduled
// point in the chain.
func TestEvalChSeesDeviceIdentity(t *testing.T) {
	g := graph.Clique(3)
	nows := make([]uint64, 3)
	draws := make([]uint64, 3)
	runConts(t, g, CD, func(v int) Cont {
		return Then(Sleep(uint64(v+1)), EvalCh(func(ch Channel) Cont {
			nows[v] = ch.Now()
			draws[v] = ch.Rand().Uint64()
			return nil
		}))
	})
	for v := 0; v < 3; v++ {
		if nows[v] != uint64(v+1) {
			t.Errorf("device %d: Now() = %d after Sleep(%d)", v, nows[v], v+1)
		}
	}
	if draws[0] == draws[1] && draws[1] == draws[2] {
		t.Error("all devices drew the same value — per-device streams not independent")
	}
}

// TestDoRunsOncePerStep pins Do's effect timing: the effect fires when
// its chain position is reached, exactly once, even though the chain
// value itself was built earlier.
func TestDoRunsOncePerStep(t *testing.T) {
	g := graph.Path(2)
	count := 0
	runConts(t, g, Local, func(v int) Cont {
		if v != 0 {
			return nil
		}
		return Then(Sleep(1), Do(func() { count++ }, Then(Sleep(2), nil)))
	})
	if count != 1 {
		t.Errorf("Do effect ran %d times, want 1", count)
	}
}

// TestNilContinuationsHalt checks every combinator's nil path maps to a
// device halt rather than a panic or a stuck device.
func TestNilContinuationsHalt(t *testing.T) {
	g := graph.Path(2)
	cases := map[string]Cont{
		"then-nil":   Then(Sleep(1), nil),
		"eval-nil":   Eval(func() Cont { return nil }),
		"evalch-nil": EvalCh(func(Channel) Cont { return nil }),
		"do-nil":     Do(func() {}, nil),
		"recv-nil":   Recv(1, func(Feedback) Cont { return nil }),
		"proc-nil":   ProcCont(idleProc(), nil),
	}
	for name, k := range cases {
		k := k
		res, err := RunDevices(Config{Graph: g, Model: Local}, fill(2, map[int]Proc{
			0: ContProc(func(Channel) Cont { return k }),
		}))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Slots > 1 {
			t.Errorf("%s: ran %d slots, want <= 1", name, res.Slots)
		}
	}
}

// TestProcContNesting drives a sub-proc inside a chain: the sub-proc's
// actions happen, its halt is consumed, and the outer chain resumes.
func TestProcContNesting(t *testing.T) {
	g := graph.Path(2)
	resumed := false
	var got Feedback
	sub := ContProc(func(Channel) Cont { return Then(Transmit(1, "sub"), nil) })
	runConts(t, g, Local, func(v int) Cont {
		if v == 0 {
			return ProcCont(sub, Do(func() { resumed = true }, Then(Listen(2), nil)))
		}
		return Recv(1, func(fb Feedback) Cont {
			got = fb
			return Then(Transmit(2, "ack"), nil)
		})
	})
	if got.Payload != "sub" {
		t.Errorf("sub-proc transmit not delivered: %+v", got)
	}
	if !resumed {
		t.Error("outer chain did not resume after the sub-proc's halt")
	}
}

// TestProcContResumesWithZeroFeedback drives ProcCont by hand with a
// sub-proc that halts on the step carrying a listen's feedback, as
// srcomm's LOCAL receiver does: the feedback is the sub-proc's, so k
// must resume with the zero Feedback.
func TestProcContResumesWithZeroFeedback(t *testing.T) {
	sub := ProcFunc(func(Channel, Feedback) Action { return Halt() })
	var seen Feedback
	var resumed bool
	k := func(_ Channel, fb Feedback) (Action, Cont) {
		seen, resumed = fb, true
		return Halt(), nil
	}
	heard := Heard(&[]any{"m"})
	if act, _ := ProcCont(sub, k)(nil, heard); act.Kind != ActHalt {
		t.Fatalf("action = %+v, want the halt k returned", act)
	}
	if !resumed {
		t.Fatal("k did not resume after the sub-proc's halt")
	}
	if seen.Status != Silence || seen.Payload != nil || seen.Payloads() != nil {
		t.Errorf("k resumed with feedback %+v, want the zero Feedback", seen)
	}
}
