// Package pathcast implements Algorithm 1 of Section 8: Broadcast on an
// n-vertex path with worst-case running time 2n and expected per-vertex
// energy O(log n) (Theorem 21).
//
// Each vertex samples a blocking time B = 2^b (P[b=i] = 2^-i, capped at
// n), announces "next message after B-1 timesteps" downstream at time 1,
// sleeps between explicitly scheduled listen alarms, and from time B on
// forwards every received message with one slot of delay. Vertices with a
// large blocking time shield their downstream from upstream
// synchronization traffic; the geometric distribution balances that
// shielding against the delay it adds to the payload.
//
// Vertices do not know their position or the orientation of the path: as
// the paper prescribes, each vertex runs the oriented algorithm twice in
// parallel, once with each neighbor in the upstream role, in the
// full-duplex LOCAL model (which by Theorem 3 also yields CD and No-CD
// algorithms with constant-factor overhead, since Delta = 2).
package pathcast

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Kind distinguishes the two message types of Algorithm 1.
type Kind uint8

// Message kinds: the payload being broadcast, and the "next message after
// i timesteps" synchronization message.
const (
	KindPayload Kind = iota
	KindSync
)

// Msg is one path-protocol message. From/To identify the oriented
// instance it belongs to (To == -1 addresses all neighbors, used by the
// source's initial payload transmission).
type Msg struct {
	From int
	To   int
	Kind Kind
	Wait uint64 // KindSync: the announced gap to the next message
	Body any    // KindPayload: the broadcast content
}

// DeviceResult is one vertex's view after the protocol.
type DeviceResult struct {
	// Informed reports whether the vertex received (or originated) the
	// payload.
	Informed bool
	// ReceivedAt is the slot of first payload receipt (0 for the source).
	ReceivedAt uint64
	// Body is the payload.
	Body any
	// BlockingTimes are the sampled B values of the vertex's oriented
	// instances (for analysis).
	BlockingTimes []uint64
}

// instance is one oriented execution of Algorithm 1 at a vertex.
// up == -1 means no upstream neighbor (the instance only emits timing
// messages); down == -1 means no downstream neighbor (the instance only
// receives).
type instance struct {
	up, down int
	b        uint64 // blocking time B (0 when the instance never sends)
	bFired   bool
	listen   uint64 // next listen-alarm slot; 0 = none scheduled
	last     *Msg   // most recently received message
	fwd      *Msg   // message scheduled for forwarding
	fwdAt    uint64
	payload  *Msg // received payload, if any
	payAt    uint64
	done     bool
}

// Params configures a run.
type Params struct {
	// Horizon is the hard stop slot; 0 selects 2*NextPow2(n)+2, just past
	// Theorem 21's 2n worst case.
	Horizon uint64
}

// DefaultHorizon returns the standard hard-stop slot for an n-vertex path.
func DefaultHorizon(n int) uint64 {
	return 2*uint64(rng.NextPow2(n)) + 2
}

// pathProc is one vertex's resumable step machine for Algorithm 1. Its
// action schedule, its per-device blocking-time draws (in oriented-
// instance order) and the rule that feedback is only processed for
// slots with a listen alarm fix its Result, which core's plan pin
// checks, and the Figure 1 trace that cmd/pathtrace prints. The
// scheduler steps it inline, so the path algorithm's long idle
// stretches cost neither virtual time nor goroutine parks.
type pathProc struct {
	p         Params
	neighbors []int
	isSource  bool
	body      any
	out       *DeviceResult

	inited     bool
	self       int
	horizon    uint64
	insts      []*instance
	pendT      uint64 // slot of the in-flight action
	pendListen bool   // the in-flight action carries a listen alarm
}

// Proc returns the device's inline step proc for one vertex. neighbors
// is the vertex's adjacency (1 or 2 entries on a path); isSource marks
// the broadcaster holding body. Procs are single-use.
func Proc(p Params, neighbors []int, isSource bool, body any, out *DeviceResult) radio.Proc {
	return &pathProc{p: p, neighbors: neighbors, isSource: isSource, body: body, out: out}
}

func (d *pathProc) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	if !d.inited {
		return d.start(ch)
	}
	if d.isSource {
		// The single slot-1 payload transmission has resolved; quit.
		return radio.Halt()
	}
	if d.pendListen {
		process(d.self, d.insts, fb, d.pendT, d.horizon)
	}
	t, any := nextAction(d.insts, d.horizon)
	if !any {
		d.finish()
		return radio.Halt()
	}
	// Decide transmissions for slot t before hearing anything in it
	// (synchronous radio: content cannot depend on the same slot's
	// receptions).
	send := collectSends(d.self, d.insts, t, d.horizon)
	listen := false
	for _, in := range d.insts {
		if !in.done && in.up >= 0 && in.listen == t {
			listen = true
		}
	}
	d.pendT = t
	switch {
	case len(send) > 0 && listen:
		d.pendListen = true
		return radio.TransmitListen(t, send)
	case len(send) > 0:
		d.pendListen = false
		return radio.Transmit(t, send)
	default:
		d.pendListen = listen
		return radio.Listen(t)
	}
}

// start initializes the device on its first step: it draws the blocking
// times and emits the slot-1 action (the source's payload transmission,
// or the synchronization announce plus listen of line 5 / line 8).
func (d *pathProc) start(ch radio.Channel) radio.Action {
	d.inited = true
	d.self = ch.Index()
	d.horizon = d.p.Horizon
	if d.horizon == 0 {
		d.horizon = DefaultHorizon(ch.N())
	}
	if d.isSource {
		// Line 1: the source transmits the payload at slot 1 and quits.
		// A single transmission reaches all neighbors.
		d.out.Informed = true
		d.out.Body = d.body
		return radio.Transmit(1, []Msg{{From: d.self, To: -1, Kind: KindPayload, Body: d.body}})
	}
	n2 := rng.NextPow2(ch.N())
	// Build the oriented instances: one per (up, down) role pair.
	switch len(d.neighbors) {
	case 1:
		d.insts = append(d.insts,
			&instance{up: d.neighbors[0], down: -1},
			&instance{up: -1, down: d.neighbors[0]},
		)
	case 2:
		d.insts = append(d.insts,
			&instance{up: d.neighbors[0], down: d.neighbors[1]},
			&instance{up: d.neighbors[1], down: d.neighbors[0]},
		)
	default:
		panic(fmt.Sprintf("pathcast: vertex %d has %d neighbors; not a path",
			d.self, len(d.neighbors)))
	}
	for _, in := range d.insts {
		if in.down >= 0 {
			in.b = uint64(rng.BlockingTime(ch.Rand(), n2))
			d.out.BlockingTimes = append(d.out.BlockingTimes, in.b)
		} else {
			in.done = false // pure receiver: no B needed
		}
	}
	// Slot 1: everyone announces its blocking time downstream and
	// listens (line 5 + line 8's t=1 case).
	var batch []Msg
	for _, in := range d.insts {
		if in.down >= 0 {
			batch = append(batch, Msg{From: d.self, To: in.down, Kind: KindSync, Wait: in.b - 1})
		}
	}
	d.pendT, d.pendListen = 1, true
	return radio.TransmitListen(1, batch)
}

func (d *pathProc) finish() {
	for _, in := range d.insts {
		if in.payload != nil {
			d.out.Informed = true
			d.out.Body = in.payload.Body
			if d.out.ReceivedAt == 0 || in.payAt < d.out.ReceivedAt {
				d.out.ReceivedAt = in.payAt
			}
		}
	}
}

// nextAction returns the earliest pending slot across instances.
func nextAction(insts []*instance, horizon uint64) (uint64, bool) {
	best := uint64(0)
	found := false
	consider := func(s uint64) {
		if s == 0 || s > horizon {
			return
		}
		if !found || s < best {
			best, found = s, true
		}
	}
	for _, in := range insts {
		if in.done {
			continue
		}
		if in.up >= 0 {
			consider(in.listen)
		}
		if in.down >= 0 && !in.bFired {
			consider(in.b)
		}
		if in.fwd != nil {
			consider(in.fwdAt)
		}
	}
	return best, found
}

// collectSends gathers every message due at slot t and advances the
// instances' send state.
func collectSends(self int, insts []*instance, t, horizon uint64) []Msg {
	var send []Msg
	for _, in := range insts {
		if in.done {
			continue
		}
		// Scheduled forward (forwarding mode, line 13).
		if in.fwd != nil && in.fwdAt == t {
			m := *in.fwd
			m.From, m.To = self, in.down
			send = append(send, m)
			in.fwd = nil
			if m.Kind == KindPayload {
				in.done = true // line 14-15
				continue
			}
		}
		// SendAlarm at t = B (lines 16-21).
		if in.down >= 0 && !in.bFired && in.b == t {
			in.bFired = true
			switch {
			case in.payload != nil && in.payAt < in.b:
				// Payload arrived strictly before B: relay it now, quit.
				m := *in.payload
				m.From, m.To = self, in.down
				send = append(send, m)
				in.done = true
			case in.up < 0:
				// No upstream: nothing will ever arrive; tell downstream
				// to stop expecting traffic from this direction.
				send = append(send, Msg{From: self, To: in.down, Kind: KindSync,
					Wait: horizon})
				in.done = true
			default:
				// Announce when the next forwarded message will appear:
				// the message received at the next ListenAlarm A is
				// forwarded at A+1, i.e. A+1-B slots from now. An alarm
				// ringing at B itself yields Wait = 1.
				a := in.listen
				if a == 0 || a > horizon {
					a = horizon
				}
				if a < t {
					a = t
				}
				send = append(send, Msg{From: self, To: in.down, Kind: KindSync,
					Wait: a + 1 - t})
			}
		}
	}
	return send
}

// process handles the receptions of slot t for every instance listening.
func process(self int, insts []*instance, fb radio.Feedback, t, horizon uint64) {
	if fb.Status != radio.Received {
		// Silence: no upstream traffic (e.g. a dead-end neighbor that
		// never spoke). Clear the alarm that just fired.
		for _, in := range insts {
			if !in.done && in.listen == t {
				in.listen = 0
			}
		}
		return
	}
	for _, in := range insts {
		if in.done || in.up < 0 {
			continue
		}
		listening := in.listen == t || t == 1
		if !listening {
			continue
		}
		if in.listen == t {
			in.listen = 0
		}
		for _, raw := range fb.Payloads() {
			msgs, ok := raw.([]Msg)
			if !ok {
				continue
			}
			for i := range msgs {
				m := msgs[i]
				if m.From != in.up || (m.To != self && m.To != -1) {
					continue
				}
				in.last = &m
				switch m.Kind {
				case KindSync:
					next := t + m.Wait
					if next <= horizon {
						in.listen = next // line 10-11
					}
				case KindPayload:
					if in.payload == nil {
						in.payload = &m
						in.payAt = t
					}
				}
				if t >= in.b && in.down >= 0 {
					// Forwarding mode (lines 12-13): relay at t+1.
					in.fwd = &m
					in.fwdAt = t + 1
				}
				if in.down < 0 && m.Kind == KindPayload {
					// Pure receiver at the path end: job done.
					in.done = true
				}
			}
		}
	}
}

// MaxReceiveSlot returns the latest payload-delivery slot over a run's
// per-device results.
func MaxReceiveSlot(devs []DeviceResult) uint64 {
	m := uint64(0)
	for _, d := range devs {
		if d.ReceivedAt > m {
			m = d.ReceivedAt
		}
	}
	return m
}

// Validate checks that g is a path and source lies on it, the inputs
// Algorithm 1 is defined for. Callers that schedule a path broadcast
// (core's planner, cmd/pathtrace) reject other inputs with its errors.
func Validate(g *graph.Graph, source int) error {
	n := g.N()
	if n == 0 {
		return fmt.Errorf("pathcast: empty graph")
	}
	ends := 0
	for v := 0; v < n; v++ {
		switch g.Degree(v) {
		case 0:
			if n > 1 {
				return fmt.Errorf("pathcast: vertex %d isolated", v)
			}
		case 1:
			ends++
		case 2:
		default:
			return fmt.Errorf("pathcast: vertex %d has degree %d; not a path", v, g.Degree(v))
		}
	}
	if n > 1 && (ends != 2 || g.M() != n-1 || !g.IsConnected()) {
		return fmt.Errorf("pathcast: graph %q is not a path", g.Name())
	}
	if source < 0 || source >= n {
		return fmt.Errorf("pathcast: source %d out of range", source)
	}
	return nil
}
