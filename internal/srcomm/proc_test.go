package srcomm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

// traceOf runs one population and renders its event stream plus
// aggregate counters for byte-exact comparison.
func traceOf(t *testing.T, cfg radio.Config, devs []radio.Device) string {
	t.Helper()
	var sb strings.Builder
	cfg.Trace = func(ev radio.Event) {
		fmt.Fprintf(&sb, "%d %d %d %v %d\n", ev.Slot, ev.Dev, ev.Kind, ev.Payload, ev.From)
	}
	res, err := radio.RunDevices(cfg, devs)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "%d %d %v %v", res.Slots, res.Events, res.Energy, res.Listens)
	return sb.String()
}

// TestProcsTraceDeterministic pins every SR-communication realization's
// determinism: a population of armed Windows produces the byte-identical
// event stream run over run — including identical random draws, which
// the decay and Lemma 8 machines must replay in a fixed stream order.
func TestProcsTraceDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		graph *graph.Graph
		model radio.Model
		idsp  int
		build func(v int) radio.Proc
	}{
		{
			name: "decay", graph: graph.Star(9), model: radio.NoCD,
			build: func(v int) radio.Proc {
				w := new(Window)
				w.ArmDecay(1, DecayParams{Delta: 8, Phases: 6}, v > 0, v*10)
				return w
			},
		},
		{
			name: "cd-precheck-ack", graph: graph.K2k(5), model: radio.CD,
			build: func(v int) radio.Proc {
				w := new(Window)
				w.ArmCD(1, CDParams{Delta: 5, Epochs: 7, Precheck: true, Ack: true}, v >= 2, v)
				return w
			},
		},
		{
			name: "cd-plain", graph: graph.Clique(6), model: radio.CD,
			build: func(v int) radio.Proc {
				w := new(Window)
				w.ArmCD(1, CDParams{Delta: 6, Epochs: 9}, v > 0, v)
				return w
			},
		},
		{
			name: "det", graph: graph.Star(7), model: radio.CD, idsp: 7,
			build: func(v int) radio.Proc {
				w := new(Window)
				w.ArmDet(1, DetParams{IDSpace: 7}, v > 0, v+20)
				return w
			},
		},
		{
			name: "local", graph: graph.Star(5), model: radio.Local,
			build: func(v int) radio.Proc {
				w := new(Window)
				w.ArmLocal(1, v > 0, v)
				return w
			},
		},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 4; seed++ {
			n := tc.graph.N()
			cfg := radio.Config{Graph: tc.graph, Model: tc.model, Seed: seed, IDSpace: tc.idsp}
			first := make([]radio.Device, n)
			second := make([]radio.Device, n)
			for v := 0; v < n; v++ {
				first[v].Proc = tc.build(v)
				second[v].Proc = tc.build(v) // fresh state for the second run
			}
			got := traceOf(t, cfg, first)
			again := traceOf(t, cfg, second)
			if got != again {
				t.Fatalf("%s seed %d: proc trace differs run over run", tc.name, seed)
			}
		}
	}
}

// TestDecayProcResults checks a decay receiver Window's delivery.
func TestDecayProcResults(t *testing.T) {
	g := graph.Star(4)
	p := DecayParams{Delta: 3, Phases: 8}
	wins := make([]Window, g.N())
	devs := make([]radio.Device, g.N())
	for v := range wins {
		wins[v].ArmDecay(1, p, v > 0, v*11)
		devs[v].Proc = &wins[v]
	}
	if _, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.NoCD, Seed: 5}, devs); err != nil {
		t.Fatal(err)
	}
	got, ok := wins[0].Delivery()
	if !ok {
		t.Fatal("decay receiver proc heard nothing in 8 phases on a 3-leaf star")
	}
	if v, isInt := got.(int); !isInt || v%11 != 0 {
		t.Fatalf("received %v, want a sender payload", got)
	}
}

// windowSeq is a device that runs consecutive windows of w slots from
// slot 1 on one re-armed Window: arm(win, i, start) arms window i, and
// every window's delivery is recorded when it halts.
type windowSeq struct {
	win   Window
	w     uint64
	n, i  int
	arm   func(win *Window, i int, start uint64)
	got   []any
	heard []bool
}

func (d *windowSeq) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	for {
		if d.i > 0 {
			if act := d.win.Step(ch, fb); act.Kind != radio.ActHalt {
				return act
			}
			m, ok := d.win.Delivery()
			d.got, d.heard = append(d.got, m), append(d.heard, ok)
		}
		if d.i == d.n {
			return radio.Halt()
		}
		d.arm(&d.win, d.i, 1+uint64(d.i)*d.w)
		d.i++
		fb = radio.Feedback{}
	}
}

// TestWindowRearmKeepsDeliveriesApart runs a receiver and a sender on
// one re-armed Window each, for every realization: the sender sends in
// windows 0 and 2 and receives in window 1, where nobody sends. Each
// re-arm starts from an empty delivery, so the receiver hears windows 0
// and 2 and nothing in 1, and the sender's window 1 delivers nothing.
func TestWindowRearmKeepsDeliveriesApart(t *testing.T) {
	cd := CDParams{Delta: 2, Epochs: 8, Precheck: true}
	decay := DecayParams{Delta: 2, Phases: 8}
	det := DetParams{IDSpace: 2}
	cases := []struct {
		name  string
		model radio.Model
		w     uint64
		arm   func(win *Window, start uint64, send bool, payload any)
	}{
		{"local", radio.Local, 1, func(win *Window, s uint64, send bool, m any) { win.ArmLocal(s, send, m) }},
		{"cd", radio.CD, cd.Slots(), func(win *Window, s uint64, send bool, m any) { win.ArmCD(s, cd, send, m) }},
		{"decay", radio.NoCD, decay.Slots(), func(win *Window, s uint64, send bool, m any) { win.ArmDecay(s, decay, send, m) }},
		{"det", radio.CD, det.Slots(), func(win *Window, s uint64, send bool, m any) { win.ArmDet(s, det, send, m) }},
	}
	for _, tc := range cases {
		recv := &windowSeq{w: tc.w, n: 3, arm: func(win *Window, _ int, start uint64) {
			tc.arm(win, start, false, nil)
		}}
		send := &windowSeq{w: tc.w, n: 3, arm: func(win *Window, i int, start uint64) {
			tc.arm(win, start, i != 1, i)
		}}
		cfg := radio.Config{Graph: graph.Path(2), Model: tc.model, Seed: 4, IDSpace: 2}
		if _, err := radio.RunDevices(cfg, radio.Procs([]radio.Proc{recv, send})); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprint(recv.got, recv.heard); got != "[0 <nil> 2] [true false true]" {
			t.Errorf("%s: receiver deliveries %s", tc.name, got)
		}
		if got := fmt.Sprint(send.heard); got != "[false false false]" {
			t.Errorf("%s: sender deliveries %s", tc.name, got)
		}
	}
}

// stepCounter counts the Step calls its proc takes.
type stepCounter struct {
	p     radio.Proc
	steps int
}

func (c *stepCounter) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	c.steps++
	return c.p.Step(ch, fb)
}

// TestDecayWindowSteps guards the cost of a decay window in proc steps,
// without timing anything: a receiver listens in one run however long
// the window, so it takes at most 3 steps (the run, the sleep to the
// window's end, the halt); a sender sends each phase as one run, so it
// takes at most Phases+2. On a path of five with one sender at an end,
// receiver 1 hears it and receivers 2 to 4 hear nothing all window.
func TestDecayWindowSteps(t *testing.T) {
	p := DecayParams{Delta: 2, Phases: 8}
	for _, model := range []radio.Model{radio.NoCD, radio.CD} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := graph.Path(5)
			wins := make([]Window, g.N())
			counters := make([]*stepCounter, g.N())
			devs := make([]radio.Device, g.N())
			for v := range devs {
				wins[v].ArmDecay(1, p, v == 0, "m")
				c := &stepCounter{p: &wins[v]}
				counters[v], devs[v].Proc = c, c
			}
			if _, err := radio.RunDevices(radio.Config{Graph: g, Model: model, Seed: seed}, devs); err != nil {
				t.Fatal(err)
			}
			m1, ok1 := wins[1].Delivery()
			m2, ok2 := wins[2].Delivery()
			if !ok1 || m1 != "m" || ok2 {
				t.Fatalf("%v seed %d: deliveries %v %v, %v %v", model, seed, m1, ok1, m2, ok2)
			}
			if s := counters[0].steps; s > p.Phases+2 {
				t.Errorf("%v seed %d: sender took %d steps for %d phases", model, seed, s, p.Phases)
			}
			for v := 1; v < g.N(); v++ {
				if s := counters[v].steps; s > 3 {
					t.Errorf("%v seed %d: receiver %d took %d steps for a %d-slot window", model, seed, v, s, p.Slots())
				}
			}
		}
	}
}
