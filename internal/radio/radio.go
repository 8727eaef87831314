// Package radio implements the synchronous multi-hop radio network model
// of Chang et al. (PODC 2018), "The Energy Complexity of Broadcast".
//
// The network is a connected undirected graph with one device per vertex.
// Time is partitioned into discrete slots, agreed by all devices. In each
// slot a device either transmits a message, listens, or idles; transmitting
// and listening cost one unit of energy each, idling is free. What a
// listener hears depends on the collision model:
//
//   - NoCD:   exactly one transmitting neighbor delivers its message; zero
//     or two-or-more neighbors are indistinguishable silence.
//   - CD:     zero neighbors is silence; two or more is noise.
//   - CDStar: zero is silence; one or more delivers some one message
//     (an arbitrary — here lowest-index — transmitter's), per Section 6.3.
//   - Local:  a listener hears every message from every transmitting
//     neighbor; there are no collisions.
//
// # Engine architecture: one device ABI, one scheduler
//
// The engine is a conservative discrete-event simulator driven entirely
// on one goroutine. Every device is a resumable step machine (Proc):
// the scheduler calls Step(ch, feedback) -> Action inline, and the proc
// carries its state between calls. There are no per-device goroutines,
// no mailbox semaphores, and no park/wake per action — an action costs
// one function call — which is what makes Monte-Carlo sweeps run at
// memory speed. The paper's algorithms are slot-driven state machines
// by construction, so every protocol package ships a native step
// machine; structured protocols compose them from the Cont combinators
// (Then, Recv, Eval, Do) instead of hand-flattening loops into state
// enums.
//
// Each round, the scheduler steps every awaited device to its next
// channel action, advances to the minimum requested slot, and resolves
// the channel for that cohort in ascending device order — the
// deterministic order the golden trace test pins byte for byte. Pending
// requests wait in a 64-slot calendar wheel: a request fewer than 64
// slots ahead sets its device's bit in its slot's bucket, a bitset over
// the devices, and one occupancy word marks the non-empty buckets. The
// next slot is one rotate and one trailing-zero count of that word, and
// its cohort is its bucket read out with a bit scan, already in device
// order. Requests 64 or more slots ahead wait in a min-heap, the far
// set, and move into the wheel once it reaches them; when the wheel is
// empty the scheduler jumps straight to the far minimum. A run ends
// when every device has halted.
//
// Feedback, like Action, is four words, the most the compiler passes
// in registers, so neither is copied through the stack as it crosses
// the nested proc layers (a Cont chain, a flat cast machine, an SR
// window, a role machine) between the scheduler and the protocol.
//
// An action can repeat a transmit or a listen over consecutive slots
// (Action.Run; TransmitRun, ListenRun). The scheduler files a run's
// device for the next slot itself and steps the proc once, after the
// run's last slot — a listen run ends at its first delivery — so a
// Lemma 7 decay window costs a receiver one step instead of one per
// slot. A slot in which nobody transmits resolves every listener to
// silence without scanning its neighbors.
//
// A listen run is parked after its first slot when the run has no
// Config.Trace and its fault kind is none or loss. A parked listener
// is filed once, for its run's last slot (or MaxSlots+1, when the run
// crosses the slot budget), and a transmitter wakes its parked
// neighbours into the slot's cohort, in device order. Every other slot
// of the run is silence for it; it is charged those slots in one step
// when it is woken or its run ends. A loss fault needs no per-slot
// draw, since it only erases a delivery, and a woken listener resolves
// that delivery as any listener does. Transmit runs are visited in
// every slot: their listeners read them there. A run with a trace sink
// keeps the per-slot path, because only that path emits each silent
// slot's event in slot order, and so does a run with a crash or sleep
// fault, because those draw a fault hash per device and slot. Both
// paths give the same Result; TestEngineMatchesReference checks them
// against a slot-by-slot reference engine.
//
// Transmit payloads are interned in the transmitter's lane cell for
// the action's run: listeners resolve them at delivery and the
// scheduler clears a cell once the slot that ends its action is fully
// resolved, so the engine never retains a payload past its last
// transmission slot. Small non-constant integer payloads can
// additionally be boxed through BoxInt, which serves immutable boxes
// from a simulator-wide interning table instead of allocating per
// transmission. Collision resolution iterates the topology's
// compressed-sparse-row adjacency (graph.CSR), whose rows are sorted by
// construction, eliminating the per-listener neighbor sort.
//
// A Simulator can be reused across runs on the same topology
// (NewSimulator + RunDevices): all per-device machinery is preallocated
// once and fully reset per run, which is what makes million-trial
// Monte-Carlo sweeps allocation-free in the hot path. The package-level
// Run is the one-shot entry point: it builds one proc per vertex, runs
// the population through RunDevices and returns every device's report,
// serving from a caller-supplied SimCache when Config.Sims is set.
package radio

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/fault"
	"repro/internal/graph"
)

// Model selects the collision behaviour of the channel.
type Model int

// The four channel models of the paper (Section 1 and Section 6.3).
const (
	NoCD Model = iota
	CD
	CDStar
	Local
)

// String returns the paper's name for the model.
func (m Model) String() string {
	switch m {
	case NoCD:
		return "No-CD"
	case CD:
		return "CD"
	case CDStar:
		return "CD*"
	case Local:
		return "LOCAL"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Status is the channel feedback visible to a listener.
type Status uint8

// Channel feedback values. Silence is the paper's lambda_S, Noise is
// lambda_N (CD model only), Received means exactly one message was
// delivered.
const (
	Silence Status = iota
	Received
	Noise
)

// String returns a short name for the status.
func (s Status) String() string {
	switch s {
	case Silence:
		return "silence"
	case Received:
		return "received"
	case Noise:
		return "noise"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Feedback is what a listening device observes in a slot. It is four
// words, the most the compiler keeps in registers, so it passes through
// every proc layer without a trip through the stack; the Local model's
// delivery list is reached through a pointer for that reason (see
// Payloads).
type Feedback struct {
	// Status describes the channel. In the Local model, Status is Received
	// when at least one neighbor transmitted and Silence otherwise.
	Status Status
	// Payload is the delivered message when Status == Received. In the
	// Local model it is the payload of the lowest-index transmitting
	// neighbor (all payloads are in Payloads).
	Payload any
	// payloads points at the Local model's delivery buffer; nil in
	// single-message models.
	payloads *[]any
}

// Heard returns a Local-model delivery of every message in *buf, which
// must hold at least one: Status Received, Payload the first message,
// Payloads *buf. The engine resolves Local slots through it, and so
// does a proc that delivers Local messages on a virtual channel.
// *buf must stay unchanged until the device's next channel action.
func Heard(buf *[]any) Feedback {
	return Feedback{Status: Received, Payload: (*buf)[0], payloads: buf}
}

// Payloads returns every delivered message in the Local model, ordered
// by transmitter index; nil in single-message models. The slice is a
// per-device buffer owned by the engine (or by the proc that built
// the Feedback with Heard), valid until the device's next channel
// action — copy it to retain it across actions.
func (fb Feedback) Payloads() []any {
	if fb.payloads == nil {
		return nil
	}
	return *fb.payloads
}

// EventKind classifies trace events.
type EventKind uint8

// Trace event kinds.
const (
	EventTransmit EventKind = iota
	EventReceive
	EventSilence
	EventNoise
)

// Event is a single trace record, emitted when Config.Trace is set.
type Event struct {
	Slot    uint64
	Dev     int
	Kind    EventKind
	Payload any
	From    int // transmitter index for EventReceive; -1 otherwise
}

// Config describes one simulation run. Devices learn from it only their
// IDs and n (Channel.AssignedID, IDSpace and N); a protocol takes Delta,
// the diameter and the model from its own Params.
type Config struct {
	// Graph is the network topology. Required, and must be non-empty.
	Graph *graph.Graph
	// Model selects the collision behaviour.
	Model Model
	// Seed derives every device's private random stream.
	Seed uint64
	// MaxSlots aborts the run when virtual time passes this slot
	// (0 means a generous default of 1<<40).
	MaxSlots uint64
	// MaxEvents aborts the run after this many device actions
	// (0 means a default of 1<<28). Events are checked when they are
	// charged: a parked listen run's silent slots are charged when it is
	// woken or its run ends, so an aborted untraced run can stop later
	// than a traced one, with a different partial Result but the same
	// error. A completed run's Result does not depend on it.
	MaxEvents uint64
	// IDSpace is the deterministic-model ID space bound N. When positive,
	// each device is assigned a distinct ID in {1..N} (IDs[i] if given,
	// else i+1).
	IDSpace int
	// IDs optionally assigns explicit distinct IDs in {1..IDSpace}.
	IDs []int
	// Trace, if non-nil, receives every transmit/listen event. It is
	// called from the scheduler goroutine only.
	Trace func(Event)
	// Fault optionally injects deterministic faults (crash-stop, sleep
	// windows, lossy slots). Decisions are positional hashes of a fault
	// root derived from Seed on a child stream disjoint from every
	// device's protocol stream, so an inactive spec — the zero value, or
	// any kind at rate 0 — leaves the run byte-identical to one with no
	// fault configuration, and an active one never perturbs protocol
	// coin flips. See internal/fault.
	Fault fault.Spec
	// Sims, if non-nil, is a per-goroutine Simulator cache: Run reuses
	// the cached engine for Graph instead of building one per call.
	// Measurements are unaffected — a recycled Simulator is fully reset —
	// so sweeps stay bit-identical for any worker count. The cache must
	// not be shared between goroutines.
	Sims *SimCache
}

// Result summarizes a completed (or aborted) run.
type Result struct {
	// Slots is the largest slot in which any device acted.
	Slots uint64
	// Energy[v] counts the slots in which v is awake (transmitting,
	// listening, or both). A full-duplex slot costs 1: the paper's energy
	// measure charges a device per non-idle slot, not per action.
	Energy []int
	// Transmits[v] and Listens[v] count v's transmit and listen actions.
	// A full-duplex slot contributes 1 to each, so Transmits[v]+Listens[v]
	// may exceed Energy[v].
	Transmits []int
	Listens   []int
	// Events is the total number of device actions processed.
	Events uint64
	// FaultCrashes, FaultSleeps and FaultErasures count the faults the
	// run's Config.Fault injected: devices crash-stopped, sleep windows
	// started, and deliveries erased by lossy slots. All zero when the
	// fault spec is inactive.
	FaultCrashes  int
	FaultSleeps   int
	FaultErasures int
}

// MaxEnergy returns max_v Energy[v] — the paper's energy complexity.
func (r *Result) MaxEnergy() int {
	m := 0
	for _, e := range r.Energy {
		if e > m {
			m = e
		}
	}
	return m
}

// TotalEnergy returns the sum of all devices' energy.
func (r *Result) TotalEnergy() int {
	t := 0
	for _, e := range r.Energy {
		t += e
	}
	return t
}

// ErrBudget is returned (wrapped) when MaxSlots or MaxEvents is exceeded.
var ErrBudget = errors.New("radio: simulation budget exceeded")

type actionKind uint8

const (
	actNone actionKind = iota
	actTransmit
	actListen
	actTransmitListen
	actHalt
)

// actAsleep flags a kinds cell whose action a sleep fault suppresses in
// the current slot. The flagged kind matches no action, and clearing
// the flag restores it for a run's next slot.
const actAsleep actionKind = 0x80

// actParked flags a listen-run member that is not visited in its run's
// silent slots: its slots cell holds its first uncharged slot, and it
// is filed once, for its run's last slot (see Simulator.parkSlot).
// actWoken replaces actParked when a transmitting neighbour brings the
// member into a slot's cohort before that filing.
const (
	actParked actionKind = 0x40
	actWoken  actionKind = 0x20
)

// Env is a device's handle to the network: the Channel implementation
// the scheduler passes to Proc.Step. It is informational only — devices
// act by returning Actions, never by calling into the engine.
type Env struct {
	sim   *Simulator
	index int
	devID int
	rand  *rand.Rand
	now   uint64
	pbuf  []any // reusable Local-model delivery buffer
}

// Index returns the device's vertex index in {0..n-1}. It is the
// simulation-level identity; randomized protocols may use it where the
// paper lets devices self-assign unique IDs, deterministic protocols
// should use AssignedID.
func (e *Env) Index() int { return e.index }

// N returns the number of vertices n (global knowledge per the model).
func (e *Env) N() int { return e.sim.n }

// IDSpace returns the deterministic ID space bound N (0 if unassigned).
func (e *Env) IDSpace() int { return e.sim.idSpace }

// AssignedID returns the device's distinct ID in {1..IDSpace}, or 0 when
// the run has no ID assignment.
func (e *Env) AssignedID() int { return e.devID }

// Rand returns the device's private deterministic random stream.
func (e *Env) Rand() *rand.Rand { return e.rand }

// Now returns the last slot the device acted in or slept through. When
// the proc is stepped after a run, that is the run's last slot: the
// slot a listen run's delivery ended it in, or else Slot+Run-1.
func (e *Env) Now() uint64 { return e.now }
