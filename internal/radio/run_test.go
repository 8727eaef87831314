package radio

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// runProc issues a random schedule of action runs drawn from a private
// stream. Where each action starts depends on the clock and on the
// feedback its predecessor ended on, so a run that ends at the wrong
// slot, or a clock that stops at the wrong slot, moves every later
// action. Every step's clock and feedback go into obs.
type runProc struct {
	r    *rand.Rand
	dev  int
	left int
	obs  *[]string
}

func (p *runProc) Step(ch Channel, fb Feedback) Action {
	*p.obs = append(*p.obs, fmt.Sprintf("%d %d %v %v", p.dev, ch.Now(), fb.Status, fb.Payload))
	if p.left == 0 {
		return Halt()
	}
	p.left--
	// First slots: adjacent, within the wheel, or past it (far heap).
	// Noise and deliveries shift the next start.
	var gap uint64
	switch p.r.IntN(3) {
	case 0:
		gap = 1 + uint64(p.r.IntN(3))
	case 1:
		gap = 4 + uint64(p.r.IntN(56))
	default:
		gap = 64 + uint64(p.r.IntN(200))
	}
	gap += uint64(fb.Status)
	first := ch.Now() + gap
	// Lengths from 1 to 200: short runs stay in one wheel turn, long
	// ones cross it.
	var n int
	switch p.r.IntN(3) {
	case 0:
		n = 1
	case 1:
		n = 2 + p.r.IntN(19)
	default:
		n = 21 + p.r.IntN(180)
	}
	switch k := p.r.IntN(20); {
	case k == 0:
		return Sleep(first)
	case k == 1:
		return TransmitListen(first, p.dev)
	case k < 8:
		return TransmitRun(first, n, p.dev)
	default:
		return ListenRun(first, n)
	}
}

// expandProc steps an inner proc and expands each run it issues into
// single-slot actions: a transmit in every slot of the run, a listen
// re-issued for the next slot after every slot without a delivery. The
// inner proc is stepped once, after the run's last slot, with that
// slot's feedback — the engine's run contract, spelled out per slot.
type expandProc struct {
	inner Proc
	run   Action // the run being expanded
	end   uint64 // its last slot
	on    bool
}

func (p *expandProc) Step(ch Channel, fb Feedback) Action {
	if p.on {
		if t := ch.Now(); t < p.end && (p.run.Kind == ActTransmit || fb.Status != Received) {
			return Action{Kind: p.run.Kind, Slot: t + 1, Payload: p.run.Payload}
		}
		p.on = false
	}
	act := p.inner.Step(ch, fb)
	if act.Run > 1 {
		p.run, p.end, p.on = act, act.Slot+uint64(act.Run)-1, true
		act.Run = 0
	}
	return act
}

// runPopulation builds n runProcs for seed, wrapped in expandProcs when
// expand is set, logging their observations to obs.
func runPopulation(n int, seed uint64, expand bool, obs *[]string) []Device {
	devs := make([]Device, n)
	for v := range devs {
		r := rand.New(rand.NewPCG(seed, uint64(v)))
		var p Proc = &runProc{r: r, dev: v, left: 4 + r.IntN(10), obs: obs}
		if expand {
			p = &expandProc{inner: p}
		}
		devs[v].Proc = p
	}
	return devs
}

// TestActionRunsMatchSingleSlots checks the run contract: a population
// issuing runs produces the same event stream, Result and per-step
// observations as the same population with every run expanded into
// single-slot actions, under every model and fault kind. Listen runs
// hear noise (CD), erased deliveries (loss) and sleep-suppressed slots
// without ending; transmit runs keep their payload in every slot.
// Seeds 3 and 4 run without a trace sink, so that without a crash or
// sleep fault the listen runs park and are charged in bulk, while
// their single-slot expansion is visited slot by slot.
func TestActionRunsMatchSingleSlots(t *testing.T) {
	faults := []fault.Spec{
		{},
		{Kind: fault.Crash, Rate: 0.002},
		{Kind: fault.Sleep, Rate: 0.03, Window: 4},
		{Kind: fault.Loss, Rate: 0.1},
	}
	for _, model := range []Model{NoCD, CD, CDStar, Local} {
		for _, fs := range faults {
			for seed := uint64(1); seed <= 4; seed++ {
				g := graph.GNP(80, 0.06, seed)
				run := func(expand bool) ([]Event, *Result, []string) {
					var events []Event
					var obs []string
					cfg := Config{Graph: g, Model: model, Seed: seed, Fault: fs}
					if seed <= 2 {
						cfg.Trace = func(ev Event) { events = append(events, ev) }
					}
					res, err := RunDevices(cfg, runPopulation(g.N(), seed, expand, &obs))
					if err != nil {
						t.Fatal(err)
					}
					return events, res, obs
				}
				runEv, runRes, runObs := run(false)
				oneEv, oneRes, oneObs := run(true)
				name := fmt.Sprintf("%v %s seed %d", model, fs.Label(), seed)
				if i := firstDiff(len(runEv), len(oneEv), func(i int) bool { return runEv[i] == oneEv[i] }); i >= 0 {
					t.Fatalf("%s: event %d of %d/%d: runs %+v, single slots %+v", name, i, len(runEv), len(oneEv),
						at(runEv, i), at(oneEv, i))
				}
				if !reflect.DeepEqual(runRes, oneRes) {
					t.Fatalf("%s: Result\n runs %+v\n single slots %+v", name, runRes, oneRes)
				}
				if i := firstDiff(len(runObs), len(oneObs), func(i int) bool { return runObs[i] == oneObs[i] }); i >= 0 {
					t.Fatalf("%s: observation %d: runs %q, single slots %q", name, i, at(runObs, i), at(oneObs, i))
				}
			}
		}
	}
}

// firstDiff returns the first index at which two sequences of lengths
// a and b differ (same reports whether index i matches), or -1.
func firstDiff(a, b int, same func(i int) bool) int {
	for i := 0; i < min(a, b); i++ {
		if !same(i) {
			return i
		}
	}
	if a != b {
		return min(a, b)
	}
	return -1
}

// at returns xs[i], or the zero value past the end.
func at[T any](xs []T, i int) T {
	var zero T
	if i < len(xs) {
		return xs[i]
	}
	return zero
}

// TestRunLimits covers the run constructors' edges and the invalid
// full-duplex run.
func TestRunLimits(t *testing.T) {
	if a, b := TransmitRun(5, 0, nil), ListenRun(5, -3); a.Run != 1 || b.Run != 1 {
		t.Errorf("runs of n < 1 hold %d and %d slots, want 1", a.Run, b.Run)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a run longer than Action.Run holds did not panic")
			}
		}()
		ListenRun(1, 1<<32)
	}()
	g := graph.Path(2)
	devs := []Device{
		{Proc: ContProc(func(Channel) Cont { return Then(Action{Kind: ActTransmitListen, Run: 3, Slot: 1}, nil) })},
		{Proc: ContProc(func(Channel) Cont { return Then(Listen(1), nil) })},
	}
	if _, err := RunDevices(Config{Graph: g}, devs); err == nil || !strings.Contains(err.Error(), "full-duplex run") {
		t.Errorf("want the full-duplex run rejected, got %v", err)
	}
}

// TestParkedRunEdges pins the edges of a parked listen run against the
// per-slot path (a traced run) and the reference engine: a run that
// crosses MaxSlots fails in slot MaxSlots+1, not at its last slot; a
// run whose silent slots exhaust MaxEvents fails on the event budget,
// before the slot budget too; and a run that a delivery ends leaves a
// filing behind, in the wheel or in the far heap, that must not be
// visited, whether the wheel is empty when the filing comes due or
// not.
func TestParkedRunEdges(t *testing.T) {
	script := func(acts ...Action) Proc {
		return ProcFunc(func(Channel, Feedback) Action {
			if len(acts) == 0 {
				return Halt()
			}
			a := acts[0]
			acts = acts[1:]
			return a
		})
	}
	for _, c := range []struct {
		name               string
		maxSlots, maxEvent uint64
		a, b               []Action // devices 0 and 1 of a two-device path
		err                string
	}{
		{"crosses MaxSlots", 10, 0, []Action{ListenRun(1, 100)}, nil, "slot 11 > MaxSlots 10"},
		{"exhausts MaxEvents", 0, 10, []Action{ListenRun(1, 100)}, nil, "events > MaxEvents 10"},
		{"MaxEvents before MaxSlots", 50, 20, []Action{ListenRun(1, 100)}, nil, "events > MaxEvents 20"},
		{"MaxSlots 2^64-1", math.MaxUint64, 0, []Action{ListenRun(1, 100)}, nil, ""},
		{"ended in the wheel", 10, 0, []Action{ListenRun(1, 100)}, []Action{Transmit(5, 1)}, ""},
		{"ended in the far heap", 0, 0, []Action{ListenRun(1, 1000), ListenRun(1500, 3)},
			[]Action{Transmit(5, 1), TransmitRun(960, 100, 1), Listen(2000)}, ""},
		{"ended past MaxSlots", 1200, 0, []Action{ListenRun(1, 2000), Listen(1500)},
			[]Action{Transmit(5, 1)}, "slot 1500 > MaxSlots 1200"},
	} {
		var results []string
		for _, engine := range []string{"untraced", "traced", "reference"} {
			cfg := Config{Graph: graph.Path(2), MaxSlots: c.maxSlots, MaxEvents: c.maxEvent}
			run := RunDevices
			switch engine {
			case "traced":
				cfg.Trace = func(Event) {}
			case "reference":
				run = refRun
			}
			res, err := run(cfg, []Device{{Proc: script(c.a...)}, {Proc: script(c.b...)}})
			switch {
			case c.err == "" && err != nil:
				t.Fatalf("%s, %s: %v", c.name, engine, err)
			case c.err != "" && (err == nil || !strings.HasSuffix(err.Error(), c.err)):
				t.Fatalf("%s, %s: error %v, want %q", c.name, engine, err, c.err)
			case c.err == "":
				results = append(results, fmt.Sprintf("%+v", *res))
			}
		}
		if len(results) > 0 && (results[0] != results[1] || results[0] != results[2]) {
			t.Errorf("%s: Results differ:\n untraced  %s\n traced    %s\n reference %s", c.name, results[0], results[1], results[2])
		}
	}
}
