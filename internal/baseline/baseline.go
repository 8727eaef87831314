// Package baseline implements the classical decay Broadcast of
// Bar-Yehuda, Goldreich and Itai (Section 1.1's reference [4]): the
// standard time-optimized, energy-oblivious comparator for every
// experiment in this repository.
//
// The protocol runs rounds of the decay pattern: informed vertices
// transmit with geometrically decreasing persistence; uninformed vertices
// listen in every slot. Time is O(D log n + log^2 n), but because
// uninformed vertices never sleep, per-vertex energy is Theta(time spent
// uninformed) — the exact behaviour the paper's algorithms eliminate.
package baseline

import (
	"repro/internal/radio"
	"repro/internal/rng"
)

// Params configures a decay-broadcast run.
type Params struct {
	// Rounds is the number of decay rounds.
	Rounds int
	// PhaseLen is the slots per round (ceil(log2 Delta)+2).
	PhaseLen int
}

// NewParams sizes the protocol for an n-vertex, degree-delta,
// diameter-diam network (w.h.p. completion).
func NewParams(n, delta, diam int) Params {
	if delta < 1 {
		delta = 1
	}
	logN := rng.Log2Ceil(n) + 1
	return Params{
		Rounds:   2*diam + 8*logN,
		PhaseLen: rng.Log2Ceil(delta) + 2,
	}
}

// Slots returns the schedule length.
func (p Params) Slots() uint64 {
	return uint64(p.Rounds) * uint64(p.PhaseLen)
}

// DeviceResult is one device's view after the protocol.
type DeviceResult struct {
	Informed   bool
	Msg        any
	ReceivedAt uint64
}

// decayProc is one vertex's resumable step machine: informed
// vertices run the decay transmission pattern each round as one
// transmit run, drawing the round's survival coins at its start (one
// per transmit); an uninformed vertex listens in one run until the end
// of the schedule, which ends at the first delivery, and transmits from
// the next round on.
type decayProc struct {
	p   Params
	out *DeviceResult

	has    bool
	body   any
	recvAt uint64

	r         int  // next round
	listening bool // the previous action was the listen run
}

// Proc returns the device's inline step proc. Procs are single-use:
// build fresh ones per run.
func Proc(p Params, isSource bool, msg any, out *DeviceResult) radio.Proc {
	d := &decayProc{p: p, out: out, has: isSource}
	if isSource {
		d.body = msg
	}
	return d
}

func (d *decayProc) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	plen := d.p.PhaseLen
	if d.listening {
		d.listening = false
		d.r = d.p.Rounds
		if fb.Status == radio.Received {
			d.has, d.body, d.recvAt = true, fb.Payload, ch.Now()
			d.r = int((ch.Now()-1)/uint64(plen)) + 1
		}
	}
	if d.r >= d.p.Rounds || plen < 1 {
		d.out.Informed = d.has
		d.out.Msg = d.body
		d.out.ReceivedAt = d.recvAt
		return radio.Halt()
	}
	first := uint64(1) + uint64(d.r)*uint64(plen)
	if !d.has {
		d.listening = true
		return radio.ListenRun(first, int(d.p.Slots()-first+1))
	}
	// Decay survival: transmit, then survive each next slot w.p. 1/2.
	n := 1
	for ch.Rand().Uint64()&1 == 1 && n < plen {
		n++
	}
	d.r++
	return radio.TransmitRun(first, n, d.body)
}
