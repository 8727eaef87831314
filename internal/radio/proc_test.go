package radio

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// traceDevices runs cfg+devs and returns the formatted event stream plus
// aggregate counters, for byte-exact run-over-run comparisons.
func traceDevices(t *testing.T, cfg Config, devs []Device) string {
	t.Helper()
	var sb strings.Builder
	cfg.Trace = func(ev Event) {
		sb.WriteString(formatEvent(ev))
		sb.WriteByte('\n')
	}
	res, err := RunDevices(cfg, devs)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "%d %d %v", res.Slots, res.Events, res.Energy)
	return sb.String()
}

// contendProc is the canonical contention step machine: each slot, draw
// one random and transmit with probability 1/4, otherwise listen.
type contendProc struct {
	slots uint64
	s     uint64
}

func (p *contendProc) Step(ch Channel, fb Feedback) Action {
	p.s++
	if p.s > p.slots {
		return Halt()
	}
	if ch.Rand().Uint64()&3 == 0 {
		return Transmit(p.s, ch.Index())
	}
	return Listen(p.s)
}

func contendingProcs(n int, slots uint64) []Device {
	devs := make([]Device, n)
	for v := 0; v < n; v++ {
		devs[v].Proc = &contendProc{slots: slots}
	}
	return devs
}

// TestProcTraceDeterministic pins the determinism contract: the same
// population on the same seed yields the byte-identical event stream and
// measurements, run over run and on every model.
func TestProcTraceDeterministic(t *testing.T) {
	g := graph.GNP(16, 0.3, 9)
	for _, model := range []Model{NoCD, CD, CDStar, Local} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := Config{Graph: g, Model: model, Seed: seed}
			first := traceDevices(t, cfg, contendingProcs(16, 20))
			second := traceDevices(t, cfg, contendingProcs(16, 20))
			if first != second {
				t.Fatalf("model %v seed %d: trace differs run over run", model, seed)
			}
		}
	}
}

// TestProcSimulatorReuse checks RunDevices on a recycled Simulator:
// fresh procs per run, identical results run over run.
func TestProcSimulatorReuse(t *testing.T) {
	g := graph.Clique(8)
	sim, err := NewSimulator(g, Config{Graph: g, Model: CD})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sim.RunDevices(3, contendingProcs(8, 20))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.RunDevices(3, contendingProcs(8, 20))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Events != r2.Events || r1.Slots != r2.Slots || r1.MaxEnergy() != r2.MaxEnergy() {
		t.Fatalf("same seed differs across reuses: %+v vs %+v", r1, r2)
	}
	fresh, err := RunDevices(Config{Graph: g, Model: CD, Seed: 3}, contendingProcs(8, 20))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Events != fresh.Events || r1.Slots != fresh.Slots {
		t.Fatalf("recycled simulator diverges from fresh: %+v vs %+v", r1, fresh)
	}
}

// sleepyProc interleaves sleeps with actions; the scheduler must treat
// sleeps as free clock moves, including a redundant (non-advancing) one.
type sleepyProc struct{ phase int }

func (p *sleepyProc) Step(ch Channel, fb Feedback) Action {
	p.phase++
	switch p.phase {
	case 1:
		return Sleep(5)
	case 2:
		return Transmit(6, "x")
	case 3:
		return Sleep(6) // non-advancing: a no-op, not an error
	case 4:
		return Listen(9)
	default:
		return Halt()
	}
}

func TestProcSleepSemantics(t *testing.T) {
	g := graph.Path(2)
	res, err := RunDevices(Config{Graph: g, Model: NoCD, Seed: 1},
		[]Device{{Proc: &sleepyProc{}}, {Proc: &sleepyProc{}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 9 {
		t.Fatalf("slots = %d, want 9", res.Slots)
	}
	for v, e := range res.Energy {
		if e != 2 {
			t.Fatalf("device %d energy = %d, want 2 (sleeps are free)", v, e)
		}
	}
}

// TestProcErrorPaths covers the halt protocol: zero Action halts, a
// panic inside Step surfaces as the run error, a non-future slot is a
// contract violation, and the simulator stays reusable after each.
func TestProcErrorPaths(t *testing.T) {
	g := graph.Path(3)
	sim, err := NewSimulator(g, Config{Graph: g, Model: NoCD})
	if err != nil {
		t.Fatal(err)
	}
	// Zero Action = halt: the run ends immediately with no events.
	res, err := sim.RunDevices(1, Procs([]Proc{
		ProcFunc(func(ch Channel, fb Feedback) Action { return Action{} }),
		ProcFunc(func(ch Channel, fb Feedback) Action { return Action{} }),
		ProcFunc(func(ch Channel, fb Feedback) Action { return Action{} }),
	}))
	if err != nil || res.Events != 0 {
		t.Fatalf("zero-action run: res=%+v err=%v", res, err)
	}
	// Panic inside Step becomes the run error; other devices finish.
	_, err = sim.RunDevices(2, Procs([]Proc{
		ProcFunc(func(ch Channel, fb Feedback) Action { panic("step boom") }),
		&contendProc{slots: 4},
		&contendProc{slots: 4},
	}))
	if err == nil || !strings.Contains(err.Error(), "step boom") {
		t.Fatalf("want step panic surfaced, got %v", err)
	}
	// Scheduling a non-future slot is a device error, not a hang.
	_, err = sim.RunDevices(3, Procs([]Proc{
		ProcFunc(func(ch Channel, fb Feedback) Action { return Transmit(0, nil) }),
		&contendProc{slots: 2},
		&contendProc{slots: 2},
	}))
	if err == nil || !strings.Contains(err.Error(), "clock") {
		t.Fatalf("want slot-ordering violation, got %v", err)
	}
	// A proc spinning on non-advancing sleeps is halted with an error,
	// not allowed to wedge the scheduler.
	_, err = sim.RunDevices(4, Procs([]Proc{
		ProcFunc(func(ch Channel, fb Feedback) Action { return Sleep(1) }),
		&contendProc{slots: 2},
		&contendProc{slots: 2},
	}))
	if err == nil || !strings.Contains(err.Error(), "without a channel action") {
		t.Fatalf("want sleep-spin backstop, got %v", err)
	}
	// And the recycled engine still matches a fresh one.
	r1, err := sim.RunDevices(6, contendingProcs(3, 6))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunDevices(Config{Graph: g, Model: NoCD, Seed: 6}, contendingProcs(3, 6))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Events != r2.Events || r1.Slots != r2.Slots {
		t.Fatalf("post-error reuse diverges: %+v vs %+v", r1, r2)
	}
	// Run on a nil or empty graph fails as RunDevices does, without
	// building a single device.
	for _, cfg := range []Config{{}, {Graph: graph.New(0)}, {Graph: graph.New(0), Sims: &SimCache{}}} {
		_, _, err := Run(cfg, func(v int, _ *int) Proc {
			t.Fatalf("Run built device %d on an empty graph", v)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "nil or empty graph") {
			t.Fatalf("Run(%+v): want the nil-or-empty-graph error, got %v", cfg, err)
		}
	}
}

// TestRunBuildsOneDevicePerVertex checks Run against RunDevices: the
// same population gives the same Result, and the report Run returns at
// index v is the one device v's proc wrote.
func TestRunBuildsOneDevicePerVertex(t *testing.T) {
	g := graph.GNP(12, 0.4, 3)
	cfg := Config{Graph: g, Model: CD, Seed: 5}
	res, reports, err := Run(cfg, func(v int, report *int) Proc {
		inner := &contendProc{slots: 6}
		return ProcFunc(func(ch Channel, fb Feedback) Action {
			*report = ch.Index() + 100*v
			return inner.Step(ch, fb)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunDevices(cfg, contendingProcs(g.N(), 6))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("Run diverges from RunDevices: %+v vs %+v", res, want)
	}
	for v, r := range reports {
		if r != 101*v {
			t.Errorf("report %d = %d, want %d", v, r, 101*v)
		}
	}
}

// TestProcBudgetAbort checks that budget exhaustion surfaces ErrBudget
// and leaves the engine reusable.
func TestProcBudgetAbort(t *testing.T) {
	g := graph.Path(4)
	everyFive := func() Proc {
		var s uint64
		return ProcFunc(func(ch Channel, fb Feedback) Action {
			s += 5
			return Transmit(s, nil)
		})
	}
	cfg := Config{Graph: g, Model: NoCD, Seed: 1, MaxSlots: 12}
	_, err := RunDevices(cfg, []Device{
		{Proc: everyFive()}, {Proc: everyFive()}, {Proc: everyFive()}, {Proc: everyFive()},
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if _, err := RunDevices(Config{Graph: g, Model: NoCD, Seed: 1}, contendingProcs(4, 6)); err != nil {
		t.Fatalf("engine unusable after budget abort: %v", err)
	}
}

// TestContProcChain exercises the continuation machinery: lazy init,
// feedback threading, and nil-continuation halt.
func TestContProcChain(t *testing.T) {
	g := graph.Path(2)
	heard := -1
	listener := ContProc(func(ch Channel) Cont {
		var await Cont
		await = func(ch Channel, fb Feedback) (Action, Cont) {
			if fb.Status == Received {
				heard = fb.Payload.(int)
				return Halt(), nil
			}
			return Listen(ch.Now() + 1), await
		}
		return func(ch Channel, fb Feedback) (Action, Cont) {
			return Listen(1), await
		}
	})
	talker := ContProc(func(ch Channel) Cont {
		return func(ch Channel, fb Feedback) (Action, Cont) {
			return Transmit(3, 42), nil
		}
	})
	res, err := RunDevices(Config{Graph: g, Model: NoCD, Seed: 1},
		[]Device{{Proc: listener}, {Proc: talker}})
	if err != nil {
		t.Fatal(err)
	}
	if heard != 42 {
		t.Fatalf("continuation listener heard %d, want 42", heard)
	}
	if res.Energy[0] != 3 || res.Energy[1] != 1 {
		t.Fatalf("energy = %v, want [3 1]", res.Energy)
	}
}

// TestBoxIntInterning pins the non-constant-payload fix: inside a proc,
// BoxInt returns the identical boxed value on repeat calls (no per-call
// allocation), delivery still carries the right integers, and outside
// the engine context it degrades to plain boxing.
func TestBoxIntInterning(t *testing.T) {
	g := graph.Path(2)
	var first, second any
	speaker := ProcFunc(func(ch Channel, fb Feedback) Action {
		switch ch.Now() {
		case 0:
			first = BoxInt(ch, 4242)
			return Transmit(1, first)
		case 1:
			second = BoxInt(ch, 4242)
			return Transmit(2, second)
		default:
			return Halt()
		}
	})
	var got []any
	listener := ProcFunc(func(ch Channel, fb Feedback) Action {
		if fb.Status == Received {
			got = append(got, fb.Payload)
		}
		if ch.Now() >= 2 {
			return Halt()
		}
		return Listen(ch.Now() + 1)
	})
	if _, err := RunDevices(Config{Graph: g, Model: NoCD, Seed: 1},
		[]Device{{Proc: speaker}, {Proc: listener}}); err != nil {
		t.Fatal(err)
	}
	if first == nil || first != second {
		t.Fatalf("BoxInt did not intern: %v vs %v", first, second)
	}
	if len(got) != 2 || got[0].(int) != 4242 || got[1].(int) != 4242 {
		t.Fatalf("delivered payloads = %v", got)
	}
	// Out-of-range and engine-external calls still box correctly.
	if v := BoxInt(nil, -3); v.(int) != -3 {
		t.Fatalf("fallback boxing = %v", v)
	}
	if v := BoxInt(nil, internCap+1); v.(int) != internCap+1 {
		t.Fatalf("fallback boxing = %v", v)
	}
}

// TestABIValuesFitInRegisters guards the size of the step ABI's two
// value types. The compiler keeps a struct in registers only while it
// is at most four words (32 bytes on 64-bit targets); a larger Feedback
// or Action is copied through the stack at every proc layer it passes.
// With the earlier 48-byte Feedback, one such reload in cluster's cast
// machine stalled on store forwarding for 0.98 s of a 9.11 s profile of
// gnp-64 No-CD trials.
func TestABIValuesFitInRegisters(t *testing.T) {
	const limit = 32
	if sz := unsafe.Sizeof(Feedback{}); sz > limit {
		t.Errorf("Feedback is %d bytes; more than %d leaves registers", sz, limit)
	}
	if sz := unsafe.Sizeof(Action{}); sz > limit {
		t.Errorf("Action is %d bytes; more than %d leaves registers", sz, limit)
	}
}
