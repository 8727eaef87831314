package radio

import (
	"fmt"
	"math"
)

// This file is the device ABI: resumable step functions (Proc) that the
// scheduler drives inline on its own goroutine, with zero park/wake
// cost per action. Procs nest — a driver proc (such as the coloring
// package's LOCAL-over-No-CD simulation) steps an inner proc itself and
// translates its actions — so layered protocols compose without any
// blocking adapter.

// ActionKind classifies what a Proc does next. The zero value halts, so
// a forgotten return ends the device instead of wedging the scheduler.
type ActionKind uint8

// Action kinds returned by Proc.Step.
const (
	// ActHalt ends the device's participation; remaining devices keep
	// running.
	ActHalt ActionKind = iota
	// ActTransmit sends Payload in slot Slot (energy 1).
	ActTransmit
	// ActListen tunes in during slot Slot (energy 1); the feedback
	// arrives in the next Step call.
	ActListen
	// ActTransmitListen transmits and listens in the same slot (full
	// duplex, energy 1 — the device is awake for one slot, which is
	// what the paper's energy measure charges; the feedback reflects
	// the other transmitters only). The paper uses full duplex in the
	// LOCAL path algorithm (Section 8) and in single-hop leader
	// election (Theorem 2); multi-hop CD/No-CD algorithms must not use
	// it (Theorem 3 notes the simulation forbids it).
	ActTransmitListen
	// ActSleep advances the device clock to Slot without energy cost
	// and immediately re-steps the proc — bookkeeping only; the next
	// channel action's slot is what synchronizes devices.
	ActSleep
)

// Action is one device decision: what to do and when. Slot must exceed
// the device's clock for the channel actions.
//
// Run repeats a transmit or a listen in the Run consecutive slots from
// Slot (0 and 1 both mean the single slot Slot), and the proc is
// stepped once, after the run's last slot, with that slot's feedback;
// Env.Now is then that slot. A listen run ends early at its first
// delivery (Status Received): noise, silence and a delivery erased by a
// loss fault do not end it. Every slot of a run is charged, traced and
// fault-injected as a single-slot action in that slot would be, so a
// run and its expansion into single-slot actions produce the same event
// stream and Result. In an untraced run without a crash or sleep fault,
// the silent slots of a listen run are charged in bulk, when a
// neighbour's transmission wakes the listener or the run ends (see the
// package doc); a completed run's Result is unchanged, and a budget
// abort names the same budget. A crash ends the run with the device; a
// full-duplex run is invalid. Run sits in Kind's padding, so Action
// stays four words.
type Action struct {
	Kind    ActionKind
	Run     uint32
	Slot    uint64
	Payload any
}

// Transmit returns a transmit action for the given future slot.
func Transmit(slot uint64, payload any) Action {
	return Action{Kind: ActTransmit, Slot: slot, Payload: payload}
}

// TransmitRun returns a transmit of payload in each of the n slots from
// first; n < 1 means one slot.
func TransmitRun(first uint64, n int, payload any) Action {
	return Action{Kind: ActTransmit, Run: runLen(n), Slot: first, Payload: payload}
}

// Listen returns a listen action for the given future slot.
func Listen(slot uint64) Action {
	return Action{Kind: ActListen, Slot: slot}
}

// ListenRun returns a listen in each of the n slots from first that
// ends at the first delivery; n < 1 means one slot.
func ListenRun(first uint64, n int) Action {
	return Action{Kind: ActListen, Run: runLen(n), Slot: first}
}

// runLen converts a run length for Action.Run. A length that does not
// fit is a protocol bug, not a schedule to truncate.
func runLen(n int) uint32 {
	if n < 1 {
		return 1
	}
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("radio: run of %d slots does not fit in Action.Run", n))
	}
	return uint32(n)
}

// TransmitListen returns a full-duplex action for the given future slot.
func TransmitListen(slot uint64, payload any) Action {
	return Action{Kind: ActTransmitListen, Slot: slot, Payload: payload}
}

// Sleep returns a free clock advance to the given slot.
func Sleep(slot uint64) Action {
	return Action{Kind: ActSleep, Slot: slot}
}

// Halt returns the terminating action.
func Halt() Action {
	return Action{Kind: ActHalt}
}

// Proc is a resumable device program: a state machine the scheduler
// steps inline on its own goroutine, paying no park/wake per action.
//
// Step receives the channel handle and the feedback of the proc's
// previous action — the zero Feedback on the first call and after
// non-listening actions — and returns the next action. The scheduler
// passes the device's *Env as ch; a driver proc passes whatever virtual
// Channel it owns, so the same machine nests inside virtual channels
// unchanged.
//
// A Proc carries its own state and is therefore single-use: build a
// fresh one (or re-initialize the same struct) for every run. Step is
// always called from a single goroutine, never concurrently.
type Proc interface {
	Step(ch Channel, fb Feedback) Action
}

// ProcFunc adapts a plain step function to the Proc interface.
type ProcFunc func(ch Channel, fb Feedback) Action

// Step calls f.
func (f ProcFunc) Step(ch Channel, fb Feedback) Action { return f(ch, fb) }

// Cont is a continuation-passing step: it consumes the feedback of the
// previously returned action and yields the next action together with
// the continuation to resume afterwards. A nil continuation halts the
// device. Conts are how deeply structured protocols (detcast's nested
// passes and recursions) run on the step ABI without hand-flattening
// every loop into a state enum: each window becomes a closure over the
// surrounding state that reads device state when the window starts
// (see Eval), which fixes the event stream the port pins check.
type Cont func(ch Channel, fb Feedback) (Action, Cont)

// contProc drives a continuation chain as a Proc, building the chain
// lazily on the first step so constructors can read the channel
// (Index, AssignedID, Rand) before emitting any action.
type contProc struct {
	init    func(ch Channel) Cont
	k       Cont
	started bool
}

func (p *contProc) Step(ch Channel, fb Feedback) Action {
	if !p.started {
		p.k = p.init(ch)
		p.started = true
	}
	if p.k == nil {
		return Halt()
	}
	act, next := p.k(ch, fb)
	p.k = next
	return act
}

// ContProc wraps a lazily built continuation chain as a Proc. init runs
// on the first Step call with the device's channel handle.
func ContProc(init func(ch Channel) Cont) Proc {
	return &contProc{init: init}
}

// Device binds one vertex to its step machine. Run is the way to run a
// protocol; Device and RunDevices stay for callers that build the
// population themselves, such as the benchmark module and the engine's
// own tests.
type Device struct {
	Proc Proc
}

// Procs wraps a proc slice as a device population.
func Procs(procs []Proc) []Device {
	devs := make([]Device, len(procs))
	for i, p := range procs {
		devs[i].Proc = p
	}
	return devs
}

// Run is the way to run a protocol: one device per vertex of
// cfg.Graph, device v built as proc(v, &reports[v]) so that its proc
// leaves its final state in the report. It returns RunDevices' Result
// and error together with every device's report. A nil or empty graph
// fails as RunDevices does, without calling proc.
func Run[R any](cfg Config, proc func(v int, report *R) Proc) (*Result, []R, error) {
	n := 0
	if cfg.Graph != nil {
		n = cfg.Graph.N()
	}
	reports := make([]R, n)
	devs := make([]Device, n)
	for v := range devs {
		devs[v].Proc = proc(v, &reports[v])
	}
	res, err := RunDevices(cfg, devs)
	return res, reports, err
}

// RunDevices executes one device per vertex, stepping every proc on the
// calling goroutine, and returns the measured result. The returned
// error wraps ErrBudget on budget exhaustion, or surfaces the first
// device panic. When cfg.Sims is set, the run reuses the cache's engine
// for cfg.Graph; otherwise a fresh Simulator is built and discarded.
func RunDevices(cfg Config, devs []Device) (*Result, error) {
	var sim *Simulator
	var err error
	if cfg.Sims != nil && cfg.Graph != nil {
		sim, err = cfg.Sims.get(cfg.Graph)
	} else {
		sim, err = NewSimulator(cfg.Graph, cfg)
	}
	if err != nil {
		return nil, err
	}
	return sim.run(cfg, devs)
}
