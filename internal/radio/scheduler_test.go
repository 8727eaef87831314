package radio

import (
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/graph"
)

// loggedAction is one channel action a schedProc returned.
type loggedAction struct {
	slot uint64
	dev  int
	tx   bool // a transmit, or the transmit half of a TransmitListen
}

// schedProc draws its whole schedule from a private seeded stream, never
// from feedback, so the actions it issues do not depend on the engine.
// It mixes same-slot requests (the next multiple of 8, which many
// devices share), adjacent and far requests, forward and no-op sleeps,
// and halts after a random number of channel actions. Every channel
// action it returns is appended to log.
type schedProc struct {
	r    *rand.Rand
	dev  int
	now  uint64
	left int
	log  *[]loggedAction
}

func (p *schedProc) Step(Channel, Feedback) Action {
	if p.left == 0 {
		return Halt()
	}
	var slot uint64
	switch p.r.IntN(8) {
	case 0:
		p.now += uint64(p.r.IntN(20)) // zero is a no-op sleep
		return Sleep(p.now)
	case 1, 2, 3:
		slot = (p.now/8 + 1) * 8
	case 4, 5:
		slot = p.now + 1
	default:
		slot = p.now + 30 + uint64(p.r.IntN(200))
	}
	p.now = slot
	p.left--
	switch p.r.IntN(4) {
	case 0:
		*p.log = append(*p.log, loggedAction{slot, p.dev, true})
		return Transmit(slot, p.dev)
	case 1:
		*p.log = append(*p.log, loggedAction{slot, p.dev, true}, loggedAction{slot, p.dev, false})
		return TransmitListen(slot, p.dev)
	default:
		*p.log = append(*p.log, loggedAction{slot, p.dev, false})
		return Listen(slot)
	}
}

// The scheduler paths gather takes, counted by runGatherCases.
const (
	gatherNear    = iota // a request filed in the wheel
	gatherFar            // a request pushed onto the far heap
	gatherMigrate        // a far request moved into the wheel
	gatherJump           // an empty wheel: the next slot is the far minimum
)

// runGatherCases drives s's scheduler round by round, exactly as loop
// does, and counts the paths gather took: each posted request filed in
// the wheel or pushed onto the far heap, each far request moved into
// the wheel, and each round that found the wheel empty. It also checks
// that every far request stays at least wheelSlots past the new slot.
func runGatherCases(t *testing.T, s *Simulator, cfg Config, devs []Device) (cases [4]int) {
	t.Helper()
	if _, err := s.prepare(cfg, devs); err != nil {
		t.Fatal(err)
	}
	defer s.finish()
	var posters []int32
	for {
		now, occ, far := s.now, s.occ, len(s.far)
		posters = append(posters[:0], s.awaiting...)
		slot, done := s.gather()
		if done {
			if s.firstErr != nil {
				t.Fatal(s.firstErr)
			}
			return cases
		}
		near, pushed := 0, 0
		for _, v := range posters {
			switch {
			case s.kinds[v] == actHalt:
			case s.slots[v]-now < wheelSlots:
				near++
			default:
				pushed++
			}
		}
		cases[gatherNear] += near
		cases[gatherFar] += pushed
		cases[gatherMigrate] += far + pushed - len(s.far)
		if occ == 0 && near == 0 {
			cases[gatherJump]++
		}
		for _, e := range s.far {
			if e.slot-slot < wheelSlots {
				t.Fatalf("slot %d: device %d's request for slot %d left in the far heap", slot, e.dev, e.slot)
			}
		}
		if err := s.resolveSlot(slot); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedulerOrdersEveryAction is the scheduler's property test. For
// engine-independent schedules on random graphs it checks that events
// come out sorted by (slot, device), that every channel action appears
// exactly once, and that each CD listen outcome matches the transmitters
// the schedules put next to it. Across the seeds every gather path must
// occur. The graphs with more than 128 vertices give each wheel bucket
// three words.
func TestSchedulerOrdersEveryAction(t *testing.T) {
	var cases [4]int
	for seed := uint64(0); seed < 32; seed++ {
		g := graph.GNP(12, 0.35, seed)
		if seed >= 24 {
			g = graph.GNP(150, 0.05, seed)
		}
		n := g.N()
		var log []loggedAction
		devs := make([]Device, n)
		for v := 0; v < n; v++ {
			r := rand.New(rand.NewPCG(seed, uint64(v)))
			devs[v].Proc = &schedProc{r: r, dev: v, left: 10 + r.IntN(40), log: &log}
		}
		var events []Event
		cfg := Config{Graph: g, Model: CD, Seed: seed, Trace: func(ev Event) { events = append(events, ev) }}
		s, err := NewSimulator(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := runGatherCases(t, s, cfg, devs)
		for i := range cases {
			cases[i] += got[i]
		}

		for i := 1; i < len(events); i++ {
			a, b := events[i-1], events[i]
			if a.Slot > b.Slot || (a.Slot == b.Slot && a.Dev > b.Dev) {
				t.Fatalf("seed %d: event %d (slot %d dev %d) after (slot %d dev %d)",
					seed, i, b.Slot, b.Dev, a.Slot, a.Dev)
			}
		}

		// Every channel action yields exactly one event per half under
		// CD: the transmit, and one listen outcome.
		seen := make([]loggedAction, len(events))
		for i, ev := range events {
			seen[i] = loggedAction{ev.Slot, ev.Dev, ev.Kind == EventTransmit}
		}
		byKey := func(xs []loggedAction) {
			sort.Slice(xs, func(i, j int) bool {
				a, b := xs[i], xs[j]
				if a.slot != b.slot {
					return a.slot < b.slot
				}
				if a.dev != b.dev {
					return a.dev < b.dev
				}
				return a.tx && !b.tx
			})
		}
		byKey(log)
		byKey(seen)
		if len(seen) != len(log) {
			t.Fatalf("seed %d: %d events for %d logged action halves", seed, len(seen), len(log))
		}
		for i := range log {
			if seen[i] != log[i] {
				t.Fatalf("seed %d: event %+v where the schedules have %+v", seed, seen[i], log[i])
			}
		}

		// Listen outcomes against the schedules' transmitters.
		txAt := make(map[uint64][]int)
		for _, a := range log {
			if a.tx {
				txAt[a.slot] = append(txAt[a.slot], a.dev)
			}
		}
		for _, ev := range events {
			if ev.Kind == EventTransmit {
				continue
			}
			var heard []int
			for _, w := range txAt[ev.Slot] {
				if g.HasEdge(ev.Dev, w) {
					heard = append(heard, w)
				}
			}
			want := EventNoise
			switch len(heard) {
			case 0:
				want = EventSilence
			case 1:
				want = EventReceive
			}
			if ev.Kind != want || (want == EventReceive && ev.From != heard[0]) {
				t.Fatalf("seed %d: slot %d dev %d heard kind %v from %d; transmitting neighbors %v",
					seed, ev.Slot, ev.Dev, ev.Kind, ev.From, heard)
			}
		}
	}
	for i, name := range []string{"request into the wheel", "request into the far heap",
		"far request into the wheel", "jump over an empty wheel"} {
		if cases[i] == 0 {
			t.Errorf("gather path %q never occurred (cases %v)", name, cases)
		}
	}
	t.Logf("gather paths (near, far, far to near, jump): %v", cases)
}
