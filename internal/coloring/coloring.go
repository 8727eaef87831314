// Package coloring implements Section 3 of the paper: the Learn-degree
// protocol (Lemma 4), the distributed Two-Hop-Coloring of G+G^2
// (Lemmas 5-6), and the Theorem 3 simulation of LOCAL algorithms in the
// No-CD model.
//
// Given a coloring where all vertices within distance two receive
// distinct colors, a LOCAL round is simulated by a frame of k = 2*Delta^2
// slots: a vertex transmits only in the slot of its own color and listens
// only in the slots of its neighbors' colors, which eliminates collisions
// entirely. The simulation multiplies time by k and energy by at most
// Delta+1, which is what makes it attractive exactly when Delta = O(1)
// (Corollary 13).
//
// SimulateProc is the package's device: one flat step machine that runs
// the setup (Learn-degree, the coloring iterations and a closing color
// exchange, one transmit or listen per slot) and then drives the inner
// LOCAL proc through the simulation.
package coloring

import (
	"math/rand/v2"
	"sort"

	"repro/internal/radio"
	"repro/internal/rng"
)

// Params sizes the setup protocols; all fields are global knowledge.
type Params struct {
	// N and Delta are the network parameters.
	N, Delta int
	// LearnSlots is the length of one Learn-degree-style exchange window.
	LearnSlots int
	// ColorIters is the number of Two-Hop-Coloring iterations.
	ColorIters int
	// StepSlots is the length of each iteration's gossip step.
	StepSlots int
}

// NewParams returns w.h.p. parameters for an n-vertex, degree-Delta
// network.
func NewParams(n, delta int) Params {
	if delta < 1 {
		delta = 1
	}
	logN := rng.Log2Ceil(n) + 1
	logD := rng.Log2Ceil(delta) + 1
	return Params{
		N:          n,
		Delta:      delta,
		LearnSlots: 8*delta*logN + 8,
		ColorIters: 4*logN + 4,
		StepSlots:  16*delta*logD + 16,
	}
}

// Colors returns the palette size k = 2*Delta^2 (at least 2).
func (p Params) Colors() int {
	k := 2 * p.Delta * p.Delta
	if k < 2 {
		k = 2
	}
	return k
}

// SetupSlots returns the slot cost of the full setup (Learn-degree, the
// coloring iterations, and the final color-exchange pass).
func (p Params) SetupSlots() uint64 {
	return uint64(p.LearnSlots) + uint64(p.ColorIters)*uint64(p.StepSlots) + uint64(p.LearnSlots)
}

// learnMsg is the payload of Learn-degree and color-exchange slots.
type learnMsg struct {
	id    int
	color int
}

// colorMsg is the gossip payload of Two-Hop-Coloring's step 3.
type colorMsg struct {
	id    int
	color int         // proposed or fixed color
	list  map[int]int // sender's view of its neighbors' colors (its L)
}

// ColoringResult is a device's outcome of the setup.
type ColoringResult struct {
	// Neighbors holds the IDs Learn-degree heard (w.h.p. every
	// neighbor), sorted.
	Neighbors []int
	// Color is the device's color in {1..k}; 0 when never fixed
	// (probability 1/poly(n)).
	Color int
	// NeighborColors maps neighbor ID to its final color.
	NeighborColors map[int]int
}

// acceptColor applies the paper's step 4: reject when (i) some entry of
// the own list is undefined or equals the candidate, or (ii) some
// neighbor's list is missing, has undefined entries, or contains the
// candidate at least twice.
func acceptColor(color int, neighbors []int, list map[int]int, copies map[int]map[int]int) bool {
	for _, u := range neighbors {
		c, ok := list[u]
		if !ok || c == color {
			return false // rule (i)
		}
	}
	for _, u := range neighbors {
		lw, ok := copies[u]
		if !ok {
			return false // rule (ii): no fresh copy of L(w)
		}
		matches := 0
		for _, c := range lw {
			if c == color {
				matches++
			}
		}
		if matches >= 2 {
			return false // rule (ii)
		}
	}
	return true
}

func cloneList(m map[int]int) map[int]int {
	c := make(map[int]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// setupProc is SimulateProc's step machine: the setup as one flat
// sequence of windows, then the simulation. Window 0 is Learn-degree
// (Lemma 4), windows 1..ColorIters are the Two-Hop-Coloring iterations
// (Section 3.1), and the last is a color exchange, so every device
// leaves with fresh neighbor colors for the simulation's listen
// schedule. In every slot a device transmits the window's message with
// probability 1/(Delta+1) (the +1 keeps the Delta = 1 case from
// transmitting always) and listens otherwise.
//
// One deviation from the paper's prose, for airtight safety: the color
// lists L(v) (and the cached copies of neighbors' lists) are reset at
// the start of every iteration, so a vertex only fixes its color based
// on colors announced in the same iteration. The paper's step 4 already
// rejects undefined entries; the reset makes staleness impossible
// rather than just unlikely.
type setupProc struct {
	p     Params
	slot  uint64 // the device's latest setup slot
	inner radio.Proc
	out   *ColoringResult
	drv   *simDriver // the simulation, once the setup has ended

	win  int // current window
	left int // slots left in it

	seen   map[int]bool // IDs heard in Learn-degree
	res    ColoringResult
	fixed  bool
	list   map[int]int         // neighbor ID -> color announced this iteration
	copies map[int]map[int]int // neighbor ID -> its list announced this iteration
	// sent is the snapshot of list that gossip transmits, shared by
	// every transmit until list changes (nil then). Receivers only read
	// the maps they keep in copies, and a snapshot is never written.
	sent map[int]int
}

func (s *setupProc) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	if s.drv != nil {
		return s.drv.Step(ch, fb)
	}
	p := s.p
	if fb.Status == radio.Received {
		s.hear(fb.Payload)
	}
	for s.left == 0 {
		s.closeWindow()
		s.win++
		if s.win > p.ColorIters+1 {
			*s.out = s.res
			s.drv = newSimDriver(s.slot, p, s.res, s.inner)
			return s.drv.Step(ch, radio.Feedback{})
		}
		if s.win > p.ColorIters {
			s.left = p.LearnSlots
		} else {
			s.left = p.StepSlots
			if !s.fixed {
				s.res.Color = 1 + ch.Rand().IntN(p.Colors())
			}
			// Fresh views for this iteration.
			s.list, s.copies, s.sent = make(map[int]int), make(map[int]map[int]int), nil
		}
	}
	s.left--
	s.slot++
	if !rng.Bernoulli(ch.Rand(), 1/float64(p.Delta+1)) {
		return radio.Listen(s.slot)
	}
	switch {
	case s.win == 0:
		return radio.Transmit(s.slot, learnMsg{id: ch.Index()})
	case s.win <= p.ColorIters:
		if s.sent == nil {
			s.sent = cloneList(s.list)
		}
		return radio.Transmit(s.slot, colorMsg{id: ch.Index(), color: s.res.Color, list: s.sent})
	}
	return radio.Transmit(s.slot, learnMsg{id: ch.Index(), color: s.res.Color})
}

// hear takes a delivery of the current window.
func (s *setupProc) hear(payload any) {
	switch m := payload.(type) {
	case learnMsg:
		if s.win == 0 {
			s.seen[m.id] = true
		} else if s.win > s.p.ColorIters {
			s.res.NeighborColors[m.id] = m.color
		}
	case colorMsg:
		if s.win > 0 && s.win <= s.p.ColorIters {
			if c, ok := s.list[m.id]; !ok || c != m.color {
				s.list[m.id] = m.color
				s.sent = nil
			}
			s.copies[m.id] = m.list
		}
	}
}

// closeWindow ends the current window: Learn-degree sorts the IDs it
// heard, an iteration fixes the color by step 4 (a fixed color keeps
// its neighbors' announced colors), and the exchange zeroes a color
// never fixed.
func (s *setupProc) closeWindow() {
	switch {
	case s.win == 0:
		for id := range s.seen {
			s.res.Neighbors = append(s.res.Neighbors, id)
		}
		sort.Ints(s.res.Neighbors)
	case s.win <= s.p.ColorIters:
		if !s.fixed {
			s.fixed = acceptColor(s.res.Color, s.res.Neighbors, s.list, s.copies)
		}
		if s.fixed {
			for id, c := range s.list {
				s.res.NeighborColors[id] = c
			}
		}
	case !s.fixed:
		s.res.Color = 0
	}
}

// localChannel is the virtual LOCAL channel handle handed to a simulated
// step machine: informational queries forward to the physical channel,
// and the clock is the driver's virtual clock.
type localChannel struct {
	phys radio.Channel
	drv  *simDriver
}

func (l *localChannel) Index() int       { return l.phys.Index() }
func (l *localChannel) N() int           { return l.phys.N() }
func (l *localChannel) IDSpace() int     { return l.phys.IDSpace() }
func (l *localChannel) AssignedID() int  { return l.phys.AssignedID() }
func (l *localChannel) Rand() *rand.Rand { return l.phys.Rand() }
func (l *localChannel) Now() uint64      { return l.drv.vnow }

// simDriver executes a LOCAL step machine over a physical No-CD (or CD)
// channel using a two-hop coloring (Theorem 3). Virtual slot s maps to
// the physical frame [base+(s-1)*k, base+s*k): the device transmits in
// its color's slot of the frame and listens in its neighbors' color
// slots, collision-free by the coloring property. Each inner action
// expands to its frame's physical actions plus a closing sleep.
type simDriver struct {
	inner radio.Proc
	base  uint64 // physical slot preceding virtual slot 1's frame
	k     uint64
	color int
	// neighbor colors sorted ascending (listen order within a frame)
	nbColors []int

	vch  *localChannel
	vnow uint64 // virtual clock
	mode uint8  // simFeed, simAfterTx, or simListening
	pend radio.Feedback
	ls   uint64 // virtual slot of the listen being serviced
	li   int    // next neighbor-color index within that frame
	got  []any
	// heard is the latest delivery's own copy of got, which pend
	// points at.
	heard []any
}

const (
	simFeed      = iota // hand pend to the inner proc and expand its action
	simAfterTx          // transmit issued; close the frame with a sleep
	simListening        // collecting per-neighbor-color listens
)

// newSimDriver builds the driver. base is the last physical slot
// consumed by setup (virtual slot 1's frame starts at base+1).
func newSimDriver(base uint64, p Params, c ColoringResult, inner radio.Proc) *simDriver {
	nb := make([]int, 0, len(c.NeighborColors))
	for _, col := range c.NeighborColors {
		nb = append(nb, col)
	}
	sort.Ints(nb)
	return &simDriver{
		inner:    inner,
		base:     base,
		k:        uint64(p.Colors()),
		color:    c.Color,
		nbColors: nb,
	}
}

// frameStart returns the physical slot before virtual slot s's frame.
func (d *simDriver) frameStart(s uint64) uint64 {
	return d.base + (s-1)*d.k
}

func (d *simDriver) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	if d.vch == nil {
		d.vch = &localChannel{phys: ch, drv: d}
	}
	for {
		switch d.mode {
		case simAfterTx:
			d.mode = simFeed
			return radio.Sleep(d.frameStart(d.vnow) + d.k)
		case simListening:
			if fb.Status == radio.Received {
				d.got = append(d.got, fb.Payload)
			}
			d.li++
			if d.li < len(d.nbColors) {
				return radio.Listen(d.frameStart(d.ls) + uint64(d.nbColors[d.li]))
			}
			d.mode = simFeed
			if len(d.got) > 0 {
				// All messages from transmitting neighbors are delivered,
				// matching LOCAL semantics.
				d.heard = append([]any(nil), d.got...)
				d.pend = radio.Heard(&d.heard)
			}
			return radio.Sleep(d.frameStart(d.ls) + d.k)
		}
		act := d.inner.Step(d.vch, d.pend)
		d.pend = radio.Feedback{}
		if act.Run > 1 {
			// A virtual slot becomes a frame of physical ones; a run of
			// virtual slots would silently shrink to its first.
			panic("coloring: action runs are not available under the LOCAL simulation")
		}
		switch act.Kind {
		case radio.ActHalt:
			return radio.Halt()
		case radio.ActSleep:
			if act.Slot > d.vnow {
				d.vnow = act.Slot
				return radio.Sleep(d.frameStart(d.vnow) + d.k)
			}
			// No-op sleep: re-step the inner proc immediately.
		case radio.ActTransmit:
			if act.Slot <= d.vnow {
				panic("coloring: virtual transmit in the past")
			}
			d.vnow = act.Slot
			d.mode = simAfterTx
			return radio.Transmit(d.frameStart(act.Slot)+uint64(d.color), act.Payload)
		case radio.ActListen:
			if act.Slot <= d.vnow {
				panic("coloring: virtual listen in the past")
			}
			d.vnow = act.Slot
			d.ls = act.Slot
			d.li = 0
			d.got = d.got[:0]
			if len(d.nbColors) == 0 {
				return radio.Sleep(d.frameStart(d.ls) + d.k)
			}
			d.mode = simListening
			return radio.Listen(d.frameStart(d.ls) + uint64(d.nbColors[0]))
		case radio.ActTransmitListen:
			panic("coloring: full duplex is not available under the LOCAL simulation")
		default:
			panic("coloring: invalid simulated action")
		}
	}
}

// SimulateProc returns a device step machine that runs the setup and
// then drives the inner LOCAL step machine through the simulation, all
// starting at physical slot start: the setup takes SetupSlots slots,
// and virtual slot 1's frame follows it. The inner proc sees a fresh
// virtual clock starting at 0; *out holds the setup's outcome once the
// setup ends.
func SimulateProc(start uint64, p Params, inner radio.Proc, out *ColoringResult) radio.Proc {
	return &setupProc{p: p, slot: start - 1, inner: inner, out: out, left: p.LearnSlots,
		seen: make(map[int]bool), res: ColoringResult{NeighborColors: make(map[int]int)}}
}
