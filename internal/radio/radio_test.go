package radio

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

// idleProc returns a device that halts immediately.
func idleProc() Proc {
	return ProcFunc(func(Channel, Feedback) Action { return Halt() })
}

// fill pads a device population with idlers up to n.
func fill(n int, m map[int]Proc) []Device {
	devs := make([]Device, n)
	for i := range devs {
		if p, ok := m[i]; ok {
			devs[i].Proc = p
		} else {
			devs[i].Proc = idleProc()
		}
	}
	return devs
}

// txOnce transmits payload in the given slot and halts.
func txOnce(slot uint64, payload any) Proc {
	return ContProc(func(Channel) Cont { return Then(Transmit(slot, payload), nil) })
}

// rxOnce listens in the given slot, stores the feedback, and halts.
func rxOnce(slot uint64, out *Feedback) Proc {
	return ContProc(func(Channel) Cont {
		return Recv(slot, func(fb Feedback) Cont {
			*out = fb
			return nil
		})
	})
}

func TestSingleDelivery(t *testing.T) {
	for _, model := range []Model{NoCD, CD, CDStar, Local} {
		g := graph.Path(2)
		var got Feedback
		res, err := RunDevices(Config{Graph: g, Model: model}, fill(2, map[int]Proc{
			0: txOnce(1, "hello"),
			1: rxOnce(1, &got),
		}))
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if got.Status != Received || got.Payload != "hello" {
			t.Errorf("%v: feedback = %+v", model, got)
		}
		if res.Slots != 1 {
			t.Errorf("%v: slots = %d", model, res.Slots)
		}
		if res.Energy[0] != 1 || res.Energy[1] != 1 {
			t.Errorf("%v: energy = %v", model, res.Energy)
		}
		if res.Transmits[0] != 1 || res.Listens[1] != 1 {
			t.Errorf("%v: transmit/listen counts wrong", model)
		}
	}
}

func TestCollisionSemantics(t *testing.T) {
	// Star: 0 is the listener center; 1 and 2 transmit simultaneously.
	cases := []struct {
		model      Model
		wantStatus Status
	}{
		{NoCD, Silence},
		{CD, Noise},
		{CDStar, Received},
		{Local, Received},
	}
	for _, c := range cases {
		g := graph.Star(3)
		var got Feedback
		_, err := RunDevices(Config{Graph: g, Model: c.model}, fill(3, map[int]Proc{
			0: rxOnce(1, &got),
			1: txOnce(1, "from1"),
			2: txOnce(1, "from2"),
		}))
		if err != nil {
			t.Fatalf("%v: %v", c.model, err)
		}
		if got.Status != c.wantStatus {
			t.Errorf("%v: status = %v, want %v", c.model, got.Status, c.wantStatus)
		}
		if c.model == CDStar && got.Payload != "from1" {
			t.Errorf("CDStar should deliver lowest-index transmitter, got %v", got.Payload)
		}
		if c.model == Local {
			if p := got.Payloads(); len(p) != 2 || p[0] != "from1" || p[1] != "from2" {
				t.Errorf("Local payloads = %v", p)
			}
		}
	}
}

func TestSilenceWhenNobodyTransmits(t *testing.T) {
	for _, model := range []Model{NoCD, CD, CDStar, Local} {
		g := graph.Path(2)
		var got Feedback
		_, err := RunDevices(Config{Graph: g, Model: model}, fill(2, map[int]Proc{
			1: rxOnce(5, &got),
		}))
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if got.Status != Silence {
			t.Errorf("%v: status = %v, want silence", model, got.Status)
		}
	}
}

func TestNonNeighborNotHeard(t *testing.T) {
	// Path 0-1-2: 0 transmits, 2 listens; they are not adjacent.
	g := graph.Path(3)
	var got Feedback
	_, err := RunDevices(Config{Graph: g, Model: Local}, fill(3, map[int]Proc{
		0: txOnce(1, "x"),
		2: rxOnce(1, &got),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != Silence {
		t.Errorf("non-neighbor heard a message: %+v", got)
	}
}

func TestTransmissionIsSlotLocal(t *testing.T) {
	// A listener in slot 2 must not hear a slot-1 transmission.
	g := graph.Path(2)
	var got Feedback
	_, err := RunDevices(Config{Graph: g, Model: Local}, fill(2, map[int]Proc{
		0: txOnce(1, "x"),
		1: rxOnce(2, &got),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != Silence {
		t.Errorf("stale transmission heard: %+v", got)
	}
}

func TestFullDuplex(t *testing.T) {
	// Two adjacent devices both TransmitListen: each hears the other.
	g := graph.Path(2)
	var fb [2]Feedback
	duplex := func(out *Feedback, payload any) Proc {
		return ContProc(func(Channel) Cont {
			return Then(TransmitListen(1, payload), bindFeedback(func(got Feedback) Cont {
				*out = got
				return nil
			}))
		})
	}
	res, err := RunDevices(Config{Graph: g, Model: Local}, []Device{
		{Proc: duplex(&fb[0], "a")},
		{Proc: duplex(&fb[1], "b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fb[0].Status != Received || fb[0].Payload != "b" {
		t.Errorf("device 0 heard %+v", fb[0])
	}
	if fb[1].Status != Received || fb[1].Payload != "a" {
		t.Errorf("device 1 heard %+v", fb[1])
	}
	// Awake-slot semantics: one slot awake costs 1, even full duplex; the
	// per-action split counters still see one transmit and one listen.
	if res.Energy[0] != 1 || res.Energy[1] != 1 {
		t.Errorf("full duplex should cost 1 awake slot: %v", res.Energy)
	}
	if res.Transmits[0] != 1 || res.Listens[0] != 1 || res.Transmits[1] != 1 || res.Listens[1] != 1 {
		t.Errorf("full duplex split counters wrong: tx=%v listen=%v", res.Transmits, res.Listens)
	}
}

func TestIdleSlotsAreSkipped(t *testing.T) {
	// A device acting at slot 1e9 must not cost 1e9 wall iterations.
	g := graph.Path(1)
	res, err := RunDevices(Config{Graph: g, Model: NoCD}, []Device{
		{Proc: txOnce(1_000_000_000, "late")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 1_000_000_000 {
		t.Errorf("slots = %d", res.Slots)
	}
	if res.Events != 1 {
		t.Errorf("events = %d", res.Events)
	}
}

func TestMaxSlotsBudget(t *testing.T) {
	g := graph.Path(1)
	_, err := RunDevices(Config{Graph: g, Model: NoCD, MaxSlots: 10}, []Device{
		{Proc: txOnce(11, "x")},
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestMaxEventsBudget(t *testing.T) {
	g := graph.Path(1)
	var s uint64
	_, err := RunDevices(Config{Graph: g, Model: NoCD, MaxEvents: 5}, []Device{
		{Proc: ProcFunc(func(Channel, Feedback) Action {
			s++
			return Transmit(s, "x")
		})},
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestDevicePanicSurfaces(t *testing.T) {
	g := graph.Path(2)
	_, err := RunDevices(Config{Graph: g, Model: NoCD}, fill(2, map[int]Proc{
		0: ProcFunc(func(Channel, Feedback) Action { panic("boom") }),
	}))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want device panic error, got %v", err)
	}
}

func TestSchedulingInPastFailsDeterministically(t *testing.T) {
	g := graph.Path(1)
	_, err := RunDevices(Config{Graph: g, Model: NoCD}, []Device{
		{Proc: ContProc(func(Channel) Cont {
			return Then(Transmit(5, "x"),
				Then(Transmit(3, "y"), nil)) // in the past: protocol bug
		})},
	})
	if err == nil || !strings.Contains(err.Error(), "clock") {
		t.Fatalf("want clock error, got %v", err)
	}
}

func TestHaltTerminatesDeviceCleanly(t *testing.T) {
	g := graph.Path(2)
	res, err := RunDevices(Config{Graph: g, Model: NoCD}, fill(2, map[int]Proc{
		0: txOnce(1, "x"), // halts after one transmit; never acts in slot 2
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Transmits[0] != 1 {
		t.Errorf("halt did not stop the device: %d transmits", res.Transmits[0])
	}
	if res.Slots != 1 {
		t.Errorf("slots = %d after early halt", res.Slots)
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	run := func() (*Result, []int) {
		g := graph.Clique(8)
		heard := make([]int, 8)
		devs := make([]Device, 8)
		for i := 0; i < 8; i++ {
			round := uint64(0)
			devs[i].Proc = ProcFunc(func(ch Channel, fb Feedback) Action {
				if fb.Status == Received {
					heard[ch.Index()]++
				}
				round++
				if round > 50 {
					return Halt()
				}
				if ch.Rand().Float64() < 0.3 {
					return Transmit(round, ch.Index())
				}
				return Listen(round)
			})
		}
		res, err := RunDevices(Config{Graph: g, Model: CD, Seed: 42}, devs)
		if err != nil {
			t.Fatal(err)
		}
		return res, heard
	}
	r1, h1 := run()
	r2, h2 := run()
	if r1.Slots != r2.Slots || r1.Events != r2.Events {
		t.Fatal("runs differ in slots/events")
	}
	for i := range h1 {
		if h1[i] != h2[i] || r1.Energy[i] != r2.Energy[i] {
			t.Fatalf("device %d differs across identical runs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed uint64) uint64 {
		g := graph.Clique(8)
		devs := make([]Device, 8)
		total := uint64(0)
		for i := 0; i < 8; i++ {
			round := uint64(0)
			devs[i].Proc = ProcFunc(func(ch Channel, fb Feedback) Action {
				for {
					round++
					if round > 30 {
						return Halt()
					}
					if ch.Rand().Float64() < 0.5 {
						total += round
						return Transmit(round, 0)
					}
					// Tails: idle through this round.
				}
			})
		}
		if _, err := RunDevices(Config{Graph: g, Model: CD, Seed: seed}, devs); err != nil {
			t.Fatal(err)
		}
		return total
	}
	if run(1) == run(2) && run(3) == run(4) {
		t.Fatal("different seeds produced identical transmission patterns twice")
	}
}

// probe runs fn once on device i's channel handle, then halts.
func probe(fn func(ch Channel)) Proc {
	return ProcFunc(func(ch Channel, fb Feedback) Action {
		fn(ch)
		return Halt()
	})
}

func TestIDAssignment(t *testing.T) {
	g := graph.Path(3)
	got := make([]int, 3)
	devs := make([]Device, 3)
	for i := range devs {
		devs[i].Proc = probe(func(ch Channel) { got[ch.Index()] = ch.AssignedID() })
	}
	if _, err := RunDevices(Config{Graph: g, Model: CD, IDSpace: 10}, devs); err != nil {
		t.Fatal(err)
	}
	for i, id := range got {
		if id != i+1 {
			t.Errorf("default ID of %d = %d", i, id)
		}
	}
	// Explicit IDs.
	got2 := make([]int, 3)
	devs2 := make([]Device, 3)
	for i := range devs2 {
		devs2[i].Proc = probe(func(ch Channel) { got2[ch.Index()] = ch.AssignedID() })
	}
	if _, err := RunDevices(Config{Graph: g, Model: CD, IDSpace: 10, IDs: []int{7, 3, 9}}, devs2); err != nil {
		t.Fatal(err)
	}
	if got2[0] != 7 || got2[1] != 3 || got2[2] != 9 {
		t.Errorf("explicit IDs = %v", got2)
	}
}

func TestIDValidation(t *testing.T) {
	g := graph.Path(2)
	if _, err := RunDevices(Config{Graph: g, Model: CD, IDSpace: 5, IDs: []int{1, 1}}, fill(2, nil)); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := RunDevices(Config{Graph: g, Model: CD, IDSpace: 5, IDs: []int{0, 1}}, fill(2, nil)); err == nil {
		t.Error("ID below 1 accepted")
	}
	if _, err := RunDevices(Config{Graph: g, Model: CD, IDSpace: 1}, fill(2, nil)); err == nil {
		t.Error("IDSpace < n accepted")
	}
	if _, err := RunDevices(Config{Graph: g, Model: CD, IDSpace: 5, IDs: []int{1}}, fill(2, nil)); err == nil {
		t.Error("short IDs slice accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RunDevices(Config{Graph: nil, Model: NoCD}, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := RunDevices(Config{Graph: graph.New(0), Model: NoCD}, nil); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := RunDevices(Config{Graph: graph.Path(3), Model: NoCD}, fill(2, nil)); err == nil {
		t.Error("device count mismatch accepted")
	}
	if _, err := RunDevices(Config{Graph: graph.Path(2), Model: NoCD}, make([]Device, 2)); err == nil {
		t.Error("nil Proc accepted")
	}
}

func TestEnvAccessors(t *testing.T) {
	g := graph.Star(4)
	var n, idx int
	devs := fill(4, map[int]Proc{2: probe(func(ch Channel) { n, idx = ch.N(), ch.Index() })})
	if _, err := RunDevices(Config{Graph: g, Model: CDStar}, devs); err != nil {
		t.Fatal(err)
	}
	if n != 4 || idx != 2 {
		t.Errorf("accessors: n=%d idx=%d", n, idx)
	}
}

func TestSleepAndNow(t *testing.T) {
	g := graph.Path(1)
	_, err := RunDevices(Config{Graph: g, Model: NoCD}, []Device{
		{Proc: ContProc(func(Channel) Cont {
			return Then(Sleep(100), EvalCh(func(ch Channel) Cont {
				if ch.Now() != 100 {
					t.Errorf("Now = %d after Sleep(100)", ch.Now())
				}
				return Then(Sleep(50), EvalCh(func(ch Channel) Cont {
					if ch.Now() != 100 {
						t.Errorf("Sleep went backwards to %d", ch.Now())
					}
					return Then(Transmit(101, "x"), EvalCh(func(ch Channel) Cont {
						if ch.Now() != 101 {
							t.Errorf("Now = %d after Transmit(101)", ch.Now())
						}
						return nil
					}))
				}))
			}))
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceEvents(t *testing.T) {
	g := graph.Path(2)
	var events []Event
	cfg := Config{Graph: g, Model: CD, Trace: func(ev Event) { events = append(events, ev) }}
	_, err := RunDevices(cfg, fill(2, map[int]Proc{
		0: txOnce(1, "m"),
		1: ContProc(func(Channel) Cont {
			return Then(Listen(1), Then(Listen(2), nil))
		}),
	}))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []EventKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	wantTx, wantRx, wantSil := 0, 0, 0
	for _, k := range kinds {
		switch k {
		case EventTransmit:
			wantTx++
		case EventReceive:
			wantRx++
		case EventSilence:
			wantSil++
		}
	}
	if wantTx != 1 || wantRx != 1 || wantSil != 1 {
		t.Errorf("trace events = %v", kinds)
	}
	for _, ev := range events {
		if ev.Kind == EventReceive && ev.From != 0 {
			t.Errorf("receive event From = %d", ev.From)
		}
	}
}

func TestResultAggregates(t *testing.T) {
	r := &Result{Energy: []int{3, 0, 5, 2}}
	if r.MaxEnergy() != 5 {
		t.Errorf("MaxEnergy = %d", r.MaxEnergy())
	}
	if r.TotalEnergy() != 10 {
		t.Errorf("TotalEnergy = %d", r.TotalEnergy())
	}
}

func TestModelAndStatusStrings(t *testing.T) {
	if NoCD.String() != "No-CD" || CD.String() != "CD" || CDStar.String() != "CD*" || Local.String() != "LOCAL" {
		t.Error("model names wrong")
	}
	if Model(99).String() == "" || Status(99).String() == "" {
		t.Error("unknown enum should still stringify")
	}
	if Silence.String() != "silence" || Received.String() != "received" || Noise.String() != "noise" {
		t.Error("status names wrong")
	}
}

func TestManyDevicesLockstep(t *testing.T) {
	// n devices each transmit in their own slot; a hub listens to each.
	// Verifies cohort release ordering over many slots.
	const n = 64
	g := graph.Star(n + 1)
	heard := 0
	devs := make([]Device, n+1)
	hubSlot := uint64(0)
	devs[0].Proc = ProcFunc(func(ch Channel, fb Feedback) Action {
		if fb.Status == Received {
			heard++
		}
		hubSlot++
		if hubSlot > n {
			return Halt()
		}
		return Listen(hubSlot)
	})
	for i := 1; i <= n; i++ {
		devs[i].Proc = ContProc(func(ch Channel) Cont {
			return Then(Transmit(uint64(ch.Index()), ch.Index()), nil)
		})
	}
	res, err := RunDevices(Config{Graph: g, Model: CD}, devs)
	if err != nil {
		t.Fatal(err)
	}
	if heard != n {
		t.Errorf("hub heard %d of %d", heard, n)
	}
	if res.Slots != n {
		t.Errorf("slots = %d", res.Slots)
	}
}
