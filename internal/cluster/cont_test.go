package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

// contTraceOf runs one device population and renders its event stream
// plus aggregate counters for byte-exact comparison.
func contTraceOf(t *testing.T, cfg radio.Config, devs []radio.Device) string {
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

// TestBroadcasterTraceDeterministic pins the Broadcaster's determinism,
// run inside a continuation chain: identical event streams — including
// identical random draws inside the SR machines — run over run, for
// every model on a two-cluster labeling, with every vertex informed.
func TestBroadcasterTraceDeterministic(t *testing.T) {
	g := graph.Path(8)
	labels := []int{0, 1, 2, 3, 3, 2, 1, 0}
	n := g.N()
	for _, model := range []radio.Model{radio.Local, radio.CD, radio.NoCD} {
		for seed := uint64(1); seed <= 3; seed++ {
			spec := NewSpec(model, n, g.MaxDegree())
			cfg := radio.Config{Graph: g, Model: model, Seed: seed}

			build := func(has []bool) []radio.Device {
				devs := make([]radio.Device, n)
				for v := 0; v < n; v++ {
					v := v
					devs[v].Proc = radio.ContProc(func(ch radio.Channel) radio.Cont {
						b := &Broadcaster{SR: spec, Layers: n,
							Label: labels[v], Has: v == 0, Msg: "M"}
						b.Arm(1, 1)
						return radio.ProcCont(b, radio.Do(func() {
							has[v] = b.Has
						}, nil))
					})
				}
				return devs
			}

			firstHas := make([]bool, n)
			secondHas := make([]bool, n)
			got := contTraceOf(t, cfg, build(firstHas))
			again := contTraceOf(t, cfg, build(secondHas))
			if got != again {
				t.Fatalf("%v seed %d: broadcaster trace differs run over run", model, seed)
			}
			for v := range firstHas {
				if firstHas[v] != secondHas[v] {
					t.Fatalf("%v seed %d: vertex %d informed mismatch", model, seed, v)
				}
				if !firstHas[v] {
					t.Errorf("%v seed %d: vertex %d not informed", model, seed, v)
				}
			}
		}
	}
}

// TestSweepContBuildsOnlyLiveWindows checks SweepCont's window
// arithmetic against a window-by-window scan, for both directions and
// for labels inside and outside the sweep: it must build exactly the
// windows whose sender or receiver layer is the label, at their slots
// and in order, and its chain must end at the sweep's last slot.
func TestSweepContBuildsOnlyLiveWindows(t *testing.T) {
	const start, w, nw = 10, 5, 6
	type window struct {
		ws         uint64
		send, recv int
	}
	for _, down := range []bool{true, false} {
		for label := -2; label <= nw+2; label++ {
			var want []window
			for i := 0; i < nw; i++ {
				send, recv := i, i+1
				if !down {
					send, recv = nw-i, nw-1-i
				}
				if send == label || recv == label {
					want = append(want, window{start + uint64(i)*w, send, recv})
				}
			}
			var got []window
			win := func(ws uint64, send, recv int, k radio.Cont) radio.Cont {
				got = append(got, window{ws, send, recv})
				return radio.Then(radio.Listen(ws), radio.Then(radio.Sleep(ws+w-1), k))
			}
			var clock uint64
			for c := SweepCont(start, w, nw, down, label, win, nil); c != nil; {
				var act radio.Action
				act, c = c(nil, radio.Feedback{})
				if act.Slot < clock {
					t.Fatalf("down=%v label %d: slot %d after %d", down, label, act.Slot, clock)
				}
				clock = act.Slot
			}
			// win may be called in any order; the walk above checked that
			// the chain runs the windows in slot order.
			sort.Slice(got, func(i, j int) bool { return got[i].ws < got[j].ws })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("down=%v label %d: built %v, want %v", down, label, got, want)
			}
			if end := uint64(start + nw*w - 1); clock != end {
				t.Errorf("down=%v label %d: chain ends at slot %d, want %d", down, label, clock, end)
			}
		}
	}
}
