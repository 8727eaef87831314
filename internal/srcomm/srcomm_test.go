package srcomm

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// runSR runs one SR window on g: the vertices in senders send their
// payloads, the receivers receive, and every other vertex sits the
// window out. arm arms a participant's Window for its role. It returns
// every receiver's delivery.
func runSR(t *testing.T, g *graph.Graph, model radio.Model, seed uint64,
	senders map[int]any, receivers map[int]bool,
	arm func(w *Window, send bool, payload any)) (map[int]any, *radio.Result) {
	t.Helper()
	n := g.N()
	wins := make([]Window, n)
	procs := make([]radio.Proc, n)
	for v := 0; v < n; v++ {
		switch {
		case senders[v] != nil:
			arm(&wins[v], true, senders[v])
			procs[v] = &wins[v]
		case receivers[v]:
			arm(&wins[v], false, nil)
			procs[v] = &wins[v]
		default:
			procs[v] = idleProc()
		}
	}
	res, err := radio.RunDevices(radio.Config{Graph: g, Model: model, Seed: seed, IDSpace: n},
		radio.Procs(procs))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := make(map[int]any)
	for v := range receivers {
		if m, ok := wins[v].Delivery(); ok && m != nil {
			got[v] = m
		}
	}
	return got, res
}

// idleProc halts immediately — the step-ABI form of a window skip, which
// costs no energy and emits no events.
func idleProc() radio.Proc {
	return radio.ProcFunc(func(radio.Channel, radio.Feedback) radio.Action {
		return radio.Halt()
	})
}

// decayArm arms decay windows for runSR.
func decayArm(p DecayParams) func(w *Window, send bool, payload any) {
	return func(w *Window, send bool, payload any) { w.ArmDecay(1, p, send, payload) }
}

// cdArm arms CD windows for runSR.
func cdArm(p CDParams) func(w *Window, send bool, payload any) {
	return func(w *Window, send bool, payload any) { w.ArmCD(1, p, send, payload) }
}

// detArm arms Lemma 24 windows for runSR.
func detArm(p DetParams) func(w *Window, send bool, payload any) {
	return func(w *Window, send bool, payload any) { w.ArmDet(1, p, send, payload) }
}

func TestDecayDeliversOnStar(t *testing.T) {
	// Center listens; k leaves all send. Exactly the contention decay
	// resolves.
	for _, k := range []int{1, 2, 8, 32} {
		g := graph.Star(k + 1)
		p := DecayParams{Delta: k, Phases: DecayPhasesForFailure(k + 1)}
		senders := make(map[int]any, k)
		for i := 1; i <= k; i++ {
			senders[i] = i * 100
		}
		got, _ := runSR(t, g, radio.NoCD, 11, senders, map[int]bool{0: true}, decayArm(p))
		if got[0] == nil {
			t.Errorf("k=%d: center received nothing", k)
		}
	}
}

func TestDecayAllReceiversHear(t *testing.T) {
	// GNP graph, random S; every receiver with an S-neighbor must hear.
	g := graph.GNP(40, 0.15, 3)
	r := rng.New(9)
	senders := make(map[int]any)
	receivers := make(map[int]bool)
	for v := 0; v < g.N(); v++ {
		if r.Float64() < 0.3 {
			senders[v] = v + 1
		} else {
			receivers[v] = true
		}
	}
	p := DecayParams{Delta: g.MaxDegree(), Phases: DecayPhasesForFailure(g.N())}
	got, _ := runSR(t, g, radio.NoCD, 13, senders, receivers, decayArm(p))
	for v := range receivers {
		hasSender := false
		for _, w := range g.Neighbors(v) {
			if senders[w] != nil {
				hasSender = true
				break
			}
		}
		if hasSender && got[v] == nil {
			t.Errorf("receiver %d with sender neighbor heard nothing", v)
		}
		if !hasSender && got[v] != nil {
			t.Errorf("receiver %d without sender neighbor heard %v", v, got[v])
		}
	}
}

func TestDecayWindowRespected(t *testing.T) {
	g := graph.Path(3)
	p := DecayParams{Delta: 2, Phases: 4}
	_, res := runSR(t, g, radio.NoCD, 1, map[int]any{0: "m"}, map[int]bool{1: true}, decayArm(p))
	if res.Slots > p.Slots() {
		t.Errorf("used slot %d beyond window %d", res.Slots, p.Slots())
	}
}

func TestCDDeliversOnStar(t *testing.T) {
	for _, k := range []int{1, 2, 8, 64} {
		g := graph.Star(k + 1)
		p := CDParams{Delta: k, Epochs: CDEpochsForFailure(k+1, k)}
		senders := make(map[int]any, k)
		for i := 1; i <= k; i++ {
			senders[i] = i * 100
		}
		got, _ := runSR(t, g, radio.CD, 21, senders, map[int]bool{0: true}, cdArm(p))
		if got[0] == nil {
			t.Errorf("k=%d: center received nothing", k)
		}
	}
}

func TestCDReceiverEnergySmall(t *testing.T) {
	// Lemma 8: receiver energy O(log log Delta + log 1/f), far below the
	// window length. With Delta=256 and generous epochs, the receiver
	// should stop after success.
	const k = 256
	g := graph.Star(k + 1)
	p := CDParams{Delta: k, Epochs: CDEpochsForFailure(k+1, k)}
	senders := make(map[int]any, k)
	for i := 1; i <= k; i++ {
		senders[i] = i
	}
	_, res := runSR(t, g, radio.CD, 5, senders, map[int]bool{0: true}, cdArm(p))
	if res.Listens[0] > p.Epochs {
		t.Errorf("receiver listened %d times (> %d epochs)", res.Listens[0], p.Epochs)
	}
	if res.Listens[0] > 30 {
		t.Errorf("receiver energy %d; want O(log log Delta) scale", res.Listens[0])
	}
}

func TestCDPrecheckDropsIrrelevant(t *testing.T) {
	// Path 0-1-2-3-4-5 with S={0, 4}, R={1}: sender 4's neighbors {3,5}
	// host no receivers, so with the pre-check sender 4 must leave the
	// window after O(1) energy while sender 0 stays engaged.
	g := graph.Path(6)
	p := CDParams{Delta: 2, Epochs: CDEpochsForFailure(6, 2), Precheck: true}
	senders := map[int]any{0: "m", 4: "w"}
	receivers := map[int]bool{1: true}
	_, res := runSR(t, g, radio.CD, 31, senders, receivers, cdArm(p))
	// Sender 4 has no receiver neighbors: energy exactly 1 (the precheck
	// listen).
	if res.Energy[4] != 1 {
		t.Errorf("irrelevant sender energy = %d, want 1", res.Energy[4])
	}
	// Sender 0 is relevant: more than precheck energy.
	if res.Energy[0] < 2 {
		t.Errorf("relevant sender energy = %d", res.Energy[0])
	}
}

func TestCDPrecheckDropsReceiverWithoutSenders(t *testing.T) {
	g := graph.Path(4) // S={0}, R={1,3}; 3's neighbor 2 is idle.
	p := CDParams{Delta: 2, Epochs: CDEpochsForFailure(4, 2), Precheck: true}
	_, res := runSR(t, g, radio.CD, 33, map[int]any{0: "m"}, map[int]bool{1: true, 3: true}, cdArm(p))
	// Receiver 3: precheck transmit + one listen = 2, then out.
	if res.Energy[3] != 2 {
		t.Errorf("irrelevant receiver energy = %d, want 2", res.Energy[3])
	}
}

func TestCDAckReleasesSenders(t *testing.T) {
	// Single sender, single receiver, Ack on: after the receiver succeeds
	// and ACKs, the sender stops; its energy stays far below epochs*2.
	g := graph.Path(2)
	p := CDParams{Delta: 1, Epochs: 200, Ack: true}
	_, res := runSR(t, g, radio.CD, 41, map[int]any{0: "m"}, map[int]bool{1: true}, cdArm(p))
	if res.Energy[0] > 40 {
		t.Errorf("acked sender energy = %d; should stop early", res.Energy[0])
	}
	if res.Energy[1] > 40 {
		t.Errorf("receiver energy = %d; should stop early", res.Energy[1])
	}
}

func TestDetSRSameMessageManySenders(t *testing.T) {
	// All senders hold the same message (broadcast relay): collisions in
	// the prefix slots are noise, still non-silence, so CD resolves it.
	g := graph.Star(9)
	p := DetParams{IDSpace: g.N()}
	senders := map[int]any{}
	for i := 1; i <= 8; i++ {
		senders[i] = 42
	}
	got, _ := runSR(t, g, radio.CD, 0, senders, map[int]bool{0: true}, detArm(p))
	if got[0] != 42 {
		t.Errorf("receiver got %v, want 42", got[0])
	}
}

// TestDetSRTwoStage checks Lemma 24 over IDs on K_{2,k}: stage one
// finds the minimum sender ID in each receiver's neighborhood and stage
// two ships that sender's payload, whatever its type. A receiver listens
// at most twice per ID bit plus once in stage two, O(log N) energy.
func TestDetSRTwoStage(t *testing.T) {
	g := graph.K2k(5)
	p := DetParams{IDSpace: g.N()}
	senders := map[int]any{}
	for v := 2; v < g.N(); v++ {
		senders[v] = fmt.Sprintf("from %d", v)
	}
	got, res := runSR(t, g, radio.CD, 0, senders, map[int]bool{0: true, 1: true}, detArm(p))
	// The lowest sender ID is device 2's (ID 3 under the default
	// assignment); both receivers are adjacent to every sender.
	for _, v := range []int{0, 1} {
		if got[v] != "from 2" {
			t.Errorf("receiver %d got %v, want the lowest-ID sender's \"from 2\"", v, got[v])
		}
		if bound := 2*max(rng.Log2Ceil(p.IDSpace), 1) + 1; res.Listens[v] > bound {
			t.Errorf("receiver %d listened %d times, above 2 log N + 1 = %d", v, res.Listens[v], bound)
		}
	}
	if res.Slots > p.Slots() {
		t.Errorf("slots %d beyond window %d", res.Slots, p.Slots())
	}
}

func TestDetSRNoSenders(t *testing.T) {
	g := graph.Path(2)
	p := DetParams{IDSpace: g.N()}
	got, _ := runSR(t, g, radio.CD, 0, map[int]any{}, map[int]bool{0: true, 1: true}, detArm(p))
	if len(got) != 0 {
		t.Errorf("receivers heard %v from nobody", got)
	}
}

func TestLocalSR(t *testing.T) {
	g := graph.Star(4)
	wins := make([]Window, g.N())
	procs := make([]radio.Proc, g.N())
	for v := range wins {
		wins[v].ArmLocal(1, v > 0, string(rune('a'+v)))
		procs[v] = &wins[v]
	}
	if _, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.Local}, radio.Procs(procs)); err != nil {
		t.Fatal(err)
	}
	if m, ok := wins[0].Delivery(); !ok || m != "b" {
		t.Fatalf("LOCAL receiver delivered %v %v, want the lowest-index sender's \"b\"", m, ok)
	}
}

func TestParamsSlotsConsistency(t *testing.T) {
	d := DecayParams{Delta: 7, Phases: 5}
	if d.Slots() != uint64(5*d.PhaseLen()) {
		t.Error("DecayParams.Slots mismatch")
	}
	c := CDParams{Delta: 7, Epochs: 5, Precheck: true, Ack: true}
	if c.Slots() != uint64(2+5*c.EpochLen()) {
		t.Error("CDParams.Slots mismatch")
	}
	if c.EpochLen() != rng.Log2Ceil(7)+2 {
		t.Error("CDParams.EpochLen mismatch")
	}
	if p := (DetParams{IDSpace: 8}); p.Slots() != 2+4+8+8 {
		t.Errorf("DetParams{IDSpace: 8}.Slots = %d, want 22", p.Slots())
	}
	if p := (DetParams{IDSpace: 1}); p.Slots() != 2+1 {
		t.Errorf("DetParams{IDSpace: 1}.Slots = %d, want 3", p.Slots())
	}
}

// TestWindowSize keeps Window in its 480-byte size class: protocols
// embed one per device (the cast machine one per Broadcaster and per
// Refiner), so a larger Window costs every device.
func TestWindowSize(t *testing.T) {
	if s := unsafe.Sizeof(Window{}); s > 480 {
		t.Errorf("unsafe.Sizeof(Window{}) = %d, want at most 480", s)
	}
}

func TestDecayDeliveryProbabilityHigh(t *testing.T) {
	// With Phases scaled for n, delivery should succeed in every one of a
	// set of seeded trials (w.h.p. semantics).
	g := graph.Star(17)
	p := DecayParams{Delta: 16, Phases: DecayPhasesForFailure(17)}
	senders := make(map[int]any)
	for i := 1; i <= 16; i++ {
		senders[i] = i
	}
	for seed := uint64(0); seed < 20; seed++ {
		got, _ := runSR(t, g, radio.NoCD, seed, senders, map[int]bool{0: true}, decayArm(p))
		if got[0] == nil {
			t.Errorf("seed %d: decay failed to deliver", seed)
		}
	}
}

func TestCDDeliveryProbabilityHigh(t *testing.T) {
	g := graph.Star(17)
	p := CDParams{Delta: 16, Epochs: CDEpochsForFailure(17, 16)}
	senders := make(map[int]any)
	for i := 1; i <= 16; i++ {
		senders[i] = i
	}
	for seed := uint64(0); seed < 20; seed++ {
		got, _ := runSR(t, g, radio.CD, 0+seed, senders, map[int]bool{0: true}, cdArm(p))
		if got[0] == nil {
			t.Errorf("seed %d: CD SR-communication failed to deliver", seed)
		}
	}
}
