// Package detcast implements the deterministic Broadcast algorithms of
// Appendix A: Theorem 25 (LOCAL, O(n log n logN) time, O(log n logN)
// energy) and Theorem 27 (CD, O(nN^2 logN log n) time, O(log^3 N log n)
// energy).
//
// Both algorithms iterate clustering by ruling sets: compute a ruling set
// I of the cluster graph, let I initiate the new clustering, and merge
// every other cluster into it, which (at least) halves the cluster count;
// after O(log n) refinements one tree spans the graph and the message is
// relayed up to its root and flooded down.
//
// Clusters are rooted trees with explicit parent pointers. In LOCAL,
// parent-child traffic is free of collisions by definition (one slot per
// layer, messages carry addresses). In CD, traffic uses the Appendix A.3
// discipline: the slot window of a parent is indexed by its unique ID, so
// distinct trees never collide (Lemma 28), and many-children contention
// inside one window is resolved with the Lemma 24 binary search over IDs
// (srcomm's Window.ArmDet).
// Ruling sets follow Lemma 26: a sequential recursion over the ID space
// for the (2, logN) CD set, a parallel recursion with distance-2 checks
// for the (3, 2logN) LOCAL set; cluster members participate only in the
// recursion path of their root's ID, keeping per-device energy O(logN)
// per ruling-set computation.
//
// # Execution model
//
// The device is a radio.Proc written in continuation-passing style: the
// schedule — whose slot layout is a pure function of Params — is
// assembled from radio's combinators (Then, Recv, Do), while every read
// of mutable protocol state (roles, labels, cluster ids) is deferred
// into a radio.Eval thunk that runs when its window starts, which fixes
// the order of those reads and so the event stream the port pin checks.
// Each phase decides at its start whether the device takes part in it,
// and the device builds only the phases it takes part in; one sleep
// covers each phase it sits out. A cluster round's non-participant
// sleeps through it, a merge iteration builds the gather, decision and
// relabel passes only for a capturing device, and the CD ruling set
// builds only the combines on the path of the device's root ID, one per
// ID bit. A Downward or Upward pass has Layers-1 steps, but a device
// acts in at most two of them: it receives in the step that reaches its
// layer and sends in the step that leaves it. The pass builds just
// those two at its start, from the device's layer, parent and IDs
// (which change only between passes), so a step the device sits out
// costs no Step call. Every cast window (offers, cluster rounds, the CD
// up-pass) re-arms the device's one srcomm.Window: ArmLocal in LOCAL,
// ArmDet in CD. The scheduler
// steps the proc inline, so the algorithm's enormous idle stretches
// (most CD windows touch a single cluster) cost neither goroutine parks
// nor virtual time.
package detcast

import (
	"fmt"

	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/srcomm"
)

// Params configures a deterministic run; all fields are global knowledge.
type Params struct {
	// Model is radio.Local or radio.CD.
	Model radio.Model
	// N is the network size; IDSpace the deterministic ID bound.
	N, IDSpace int
	// Layers bounds tree depths (n).
	Layers int
	// Refinements is the number of clustering iterations.
	Refinements int
	// MergeIters is the merge iteration count per refinement.
	MergeIters int
}

// NewParams derives the standard parameterization.
func NewParams(model radio.Model, n, idSpace int) (Params, error) {
	if model != radio.Local && model != radio.CD {
		return Params{}, fmt.Errorf("detcast: model %v unsupported", model)
	}
	if n < 1 || idSpace < n {
		return Params{}, fmt.Errorf("detcast: n=%d idSpace=%d", n, idSpace)
	}
	logN := rng.Log2Ceil(idSpace)
	if logN < 1 {
		logN = 1
	}
	mi := logN + 2
	if model == radio.Local {
		mi = 2*logN + 2
	}
	return Params{
		Model:       model,
		N:           n,
		IDSpace:     idSpace,
		Layers:      n,
		Refinements: rng.Log2Ceil(n) + 2,
		MergeIters:  mi,
	}, nil
}

// bits returns the ID bit-width.
func (p Params) bits() int {
	b := rng.Log2Ceil(p.IDSpace)
	if b < 1 {
		b = 1
	}
	return b
}

// ---- deterministic communication windows ----------------------------

// castSlots is the slot cost of one cast window: one slot in LOCAL, a
// Lemma 24 window over the ID space in CD.
func (p Params) castSlots() uint64 {
	if p.Model == radio.Local {
		return 1
	}
	return srcomm.DetParams{IDSpace: p.IDSpace}.Slots()
}

type addressed struct {
	from, to int // vertex indices; to == -1 broadcasts
	key      int // sender's assigned ID
	body     any
}

// downStep is the slot cost of one step of a Downward pass: one slot,
// or in CD one slot per ID.
func (p Params) downStep() uint64 {
	if p.Model == radio.CD {
		return uint64(p.IDSpace)
	}
	return 1
}

// upStep is the slot cost of one step of an Upward pass: one slot, or
// in CD one cast window per ID.
func (p Params) upStep() uint64 {
	if p.Model == radio.CD {
		return uint64(p.IDSpace) * p.castSlots()
	}
	return 1
}

// downSlots is the slot cost of one Downward pass.
func (p Params) downSlots() uint64 { return uint64(maxInt(p.Layers-1, 0)) * p.downStep() }

// upSlots is the slot cost of one Upward pass.
func (p Params) upSlots() uint64 { return uint64(maxInt(p.Layers-1, 0)) * p.upStep() }

// dev is the per-device protocol state.
type dev struct {
	p     Params
	index int // vertex index
	id    int // assigned ID

	layer    int
	parent   int // vertex index; -1 at roots
	parentID int // assigned ID of the parent
	cid      int // root vertex index of the device's cluster
	cidID    int // assigned ID of that root

	joined   bool
	inI      bool
	hasJoin  bool // root: someone merged under this cluster
	captured *addressed
	winner   int
	newLayer int
	newPar   int
	newParID int
	newCID   int
	newCIDID int

	win srcomm.Window // re-armed for each cast window
}

// A device's part in a cast window.
const (
	castSend = iota
	castRecv
	castSkip
)

// castWindowK runs one cast window in [start, start+castSlots) on the
// device's Window: ArmLocal in LOCAL, Lemma 24's ArmDet in CD. role,
// evaluated at window start, yields the device's part and a sender's
// body. A receiver obtains the message of its lowest-ID sending
// neighbor in CD and of its lowest-index one in LOCAL; done takes it,
// if any, before k resumes.
func (d *dev) castWindowK(start uint64, role func() (int, any), done func(addressed), k radio.Cont) radio.Cont {
	p := d.p
	return radio.Eval(func() radio.Cont {
		r, body := role()
		if r == castSkip {
			return radio.Then(radio.Sleep(start+p.castSlots()-1), k)
		}
		send := r == castSend
		var m any
		if send {
			m = addressed{from: d.index, to: -1, key: d.id, body: body}
		}
		if p.Model == radio.Local {
			d.win.ArmLocal(start, send, m)
		} else {
			d.win.ArmDet(start, srcomm.DetParams{IDSpace: p.IDSpace}, send, m)
		}
		if send {
			return radio.ProcCont(&d.win, k)
		}
		return radio.ProcCont(&d.win, radio.Eval(func() radio.Cont {
			if got, ok := d.win.Delivery(); ok {
				done(got.(addressed))
			}
			return k
		}))
	})
}

// downPassK: parents push payloads to children. Step i carries layer i
// to layer i+1, so a device receives from its parent in step layer-1
// and then, if send yields a payload, sends in step layer; it builds
// nothing for the other steps. Occupies [start, start+downSlots).
func (d *dev) downPassK(start uint64, send func() (any, bool), recvFn func(any), k radio.Cont) radio.Cont {
	p := d.p
	if p.Layers < 2 {
		return k
	}
	step := p.downStep()
	end := radio.Then(radio.Sleep(start+p.downSlots()-1), k)
	return radio.Eval(func() radio.Cont {
		sendK := end
		if d.layer <= p.Layers-2 {
			base := start + uint64(d.layer)*step
			sendK = radio.Eval(func() radio.Cont {
				body, ok := send()
				switch {
				case !ok:
					return end
				case p.Model == radio.Local:
					return radio.Then(radio.Transmit(base, addressed{from: d.index, to: -1, body: body}), end)
				}
				return radio.Then(radio.Transmit(base+uint64(d.id-1), body), end)
			})
		}
		if d.parent < 0 || d.layer < 1 || d.layer > p.Layers-1 {
			return sendK
		}
		base := start + uint64(d.layer-1)*step
		if p.Model == radio.Local {
			return radio.Recv(base, func(fb radio.Feedback) radio.Cont {
				for _, raw := range fb.Payloads() {
					if m, ok := raw.(addressed); ok && m.from == d.parent {
						recvFn(m.body)
					}
				}
				return sendK
			})
		}
		return radio.Recv(base+uint64(d.parentID-1), func(fb radio.Feedback) radio.Cont {
			if fb.Status == radio.Received {
				recvFn(fb.Payload)
			}
			return sendK
		})
	})
}

// upPassK: children push payloads to parents. Step i carries layer
// Layers-1-i to its parents, so a device receives from its children in
// step Layers-2-layer and then, if send yields a payload, sends in step
// Layers-1-layer; it builds nothing for the other steps. In CD a step is
// one Lemma 24 window per ID, a parent's ID indexing the window that
// resolves its children's contention. Occupies [start, start+upSlots).
func (d *dev) upPassK(start uint64, send func() (any, bool), recvFn func(any), k radio.Cont) radio.Cont {
	p := d.p
	if p.Layers < 2 {
		return k
	}
	step := p.upStep()
	end := radio.Then(radio.Sleep(start+p.upSlots()-1), k)
	return radio.Eval(func() radio.Cont {
		sendK := end
		if d.parent >= 0 && d.layer >= 1 && d.layer <= p.Layers-1 {
			base := start + uint64(p.Layers-1-d.layer)*step
			if p.Model == radio.Local {
				sendK = radio.Eval(func() radio.Cont {
					if body, ok := send(); ok {
						return radio.Then(radio.Transmit(base, addressed{from: d.index, to: d.parent, body: body}), end)
					}
					return end
				})
			} else {
				sendK = d.castWindowK(base+uint64(d.parentID-1)*p.castSlots(),
					func() (int, any) {
						if body, ok := send(); ok {
							return castSend, body
						}
						return castSkip, nil
					}, nil, end)
			}
		}
		if d.layer > p.Layers-2 {
			return sendK
		}
		base := start + uint64(p.Layers-2-d.layer)*step
		if p.Model == radio.Local {
			return radio.Recv(base, func(fb radio.Feedback) radio.Cont {
				for _, raw := range fb.Payloads() {
					if m, ok := raw.(addressed); ok && m.to == d.index {
						recvFn(m.body)
						break
					}
				}
				return sendK
			})
		}
		return d.castWindowK(base+uint64(d.id-1)*p.castSlots(),
			func() (int, any) { return castRecv, nil },
			func(m addressed) { recvFn(m.body) }, sendK)
	})
}

// clusterRoundK simulates one cluster-graph round (Lemma 29): the
// root's flag floods down, flagged clusters' members All-cast,
// receptions OR up to the root. args is evaluated at round start and
// yields (participate, sendFlag, listenFlag); done receives whether
// this device's cluster heard anything (meaningful at the root). A
// device that does not participate sleeps to the round's end, where
// done hears false.
func (d *dev) clusterRoundK(start uint64, args func() (bool, bool, bool),
	done func(heard bool), k radio.Cont) radio.Cont {
	p := d.p
	castStart := start + p.downSlots()
	upStart := castStart + p.castSlots()
	return radio.Eval(func() radio.Cont {
		participate, sendFlag, listenFlag := args()
		if !participate {
			return radio.Then(radio.Sleep(upStart+p.upSlots()-1), radio.Do(func() { done(false) }, k))
		}
		role := 0 // cluster role: 0 idle, 1 send, 2 listen
		if d.parent < 0 {
			if sendFlag {
				role = 1
			} else if listenFlag {
				role = 2
			}
		}
		heard := false
		up := d.upPassK(upStart,
			func() (any, bool) { return true, heard },
			func(m any) {
				if b, ok := m.(bool); ok && b {
					heard = true
				}
			},
			radio.Do(func() { done(heard) }, k))
		cast := d.castWindowK(castStart,
			func() (int, any) {
				switch role {
				case 1:
					return castSend, d.cid
				case 2:
					return castRecv, nil
				}
				return castSkip, nil
			},
			func(addressed) { heard = true },
			radio.Then(radio.Sleep(upStart-1), up))
		return d.downPassK(start,
			func() (any, bool) { return role, role != 0 },
			func(m any) {
				if r, ok := m.(int); ok {
					role = r
				}
			},
			cast)
	})
}

// statusFloodK pushes the root's current inI value down the tree.
func (d *dev) statusFloodK(start uint64, k radio.Cont) radio.Cont {
	var fresh *bool
	return radio.Do(func() {
		fresh = nil
		if d.parent < 0 {
			v := d.inI
			fresh = &v
		}
	}, d.downPassK(start,
		func() (any, bool) {
			if fresh != nil {
				return *fresh, true
			}
			return nil, false
		},
		func(m any) {
			if b, ok := m.(bool); ok {
				d.inI = b
				v := b
				fresh = &v
			}
		},
		k))
}

// combineSlots is the slot cost of one cluster round plus status flood.
func (p Params) combineSlots() uint64 {
	return p.downSlots() + p.castSlots() + p.upSlots() + p.downSlots()
}

// rulingSetCDK computes the (2, logN) ruling set of the cluster graph by
// the Lemma 26 sequential recursion over ID prefixes. A level-l call
// runs its two level-(l-1) halves, then a combine of its in-I clusters
// (I0 with prefix||0 announce, I1 with prefix||1 listen and drop out if
// they hear). The device's cluster takes part only in the combines on
// its root ID's path, one per level, and builds nothing for the others.
// Cluster roots end with inI set. Occupies rulingSlots.
func (d *dev) rulingSetCDK(start uint64, k radio.Cont) radio.Cont {
	p := d.p
	// A level-l call covers 2^l - 1 combines.
	levelSlots := func(level int) uint64 {
		return (uint64(1)<<uint(level) - 1) * p.combineSlots()
	}
	return radio.Eval(func() radio.Cont {
		// Leaf: every cluster starts in I of its own singleton call.
		d.inI = true
		// Walk the path from the top level down: the level-l call's
		// combine follows its two halves, and the path goes on into the
		// second half when bit l-1 of the root ID's prefix is 1. The
		// level-l combine runs after the level-(l-1) one, so each wraps
		// the chain built so far. cidID changes only at a merge commit.
		path := d.cidID - 1
		t := start
		for l := p.bits(); l >= 1; l-- {
			bit := path >> uint(l-1) & 1
			t2 := t + 2*levelSlots(l-1)
			k = d.clusterRoundK(t2,
				func() (bool, bool, bool) { return d.inI, d.inI && bit == 0, d.inI && bit == 1 },
				func(heard bool) {
					if d.inI && bit == 1 && d.parent < 0 && heard {
						d.inI = false
					}
				},
				// Drop-outs must inform members so they stop participating:
				// the root's updated status floods down (each member relays
				// the fresh value it received earlier in the same pass).
				d.statusFloodK(t2+p.downSlots()+p.castSlots()+p.upSlots(), k))
			t += uint64(bit) * levelSlots(l-1)
		}
		return k
	})
}

// rulingSetLocalK computes the (3, 2logN) ruling set of the cluster
// graph by the parallel recursion: at each level, surviving 1-side
// clusters drop out if an I0 cluster lies within two cluster-graph
// hops; the two hops are two cluster rounds (announce, then relay).
func (d *dev) rulingSetLocalK(start uint64, k radio.Cont) radio.Cont {
	p := d.p
	round := p.downSlots() + p.castSlots() + p.upSlots()
	levelLen := 2*round + p.downSlots()
	bits := p.bits()
	var level func(l int, t uint64) radio.Cont
	level = func(l int, t uint64) radio.Cont {
		if l > bits {
			return k
		}
		var heard1, listening bool
		bit := func() int { return ((d.cidID - 1) >> uint(l-1)) & 1 }
		// Hop 1: I0 clusters announce; everyone else listens.
		hop1 := d.clusterRoundK(t,
			func() (bool, bool, bool) { return true, d.inI && bit() == 0, true },
			func(h bool) {
				heard1 = h
				if d.inI && bit() == 1 && d.parent < 0 && h {
					// An I0 cluster is adjacent: drop out right away.
					d.inI = false
				}
			},
			// Hop 2: clusters that heard hop 1 (and the I0 sources)
			// relay; the remaining I1 clusters listen for distance-2
			// evidence. Dropped clusters relay rather than listen, which
			// is exactly what their distance-2 neighbors need.
			d.clusterRoundK(t+round,
				func() (bool, bool, bool) {
					listening = d.inI && bit() == 1 && !heard1
					relay := (heard1 || (d.inI && bit() == 0)) && !listening
					return true, relay, listening
				},
				func(h bool) {
					if listening && d.parent < 0 && h {
						d.inI = false
					}
				},
				d.statusFloodK(t+2*round,
					radio.Eval(func() radio.Cont { return level(l+1, t+levelLen) }))))
		return hop1
	}
	return radio.Do(func() { d.inI = true }, level(1, start))
}

// mergeIterationK attaches unjoined clusters to the new clustering:
// joined clusters All-cast offers, capturers are gathered to their
// roots, the winner re-roots its tree under the offering vertex, and
// new labels propagate along the old tree (Section 6.4). reversed
// selects the singleton-fix round, where only clusters known to be
// non-singleton groups offer and only childless ruling-set clusters
// capture. Whether the device offers or captures is decided at
// iteration start; a device that does not capture offers or skips the
// offer window and sleeps to the iteration's end. Occupies mergeSlots.
func (d *dev) mergeIterationK(start uint64, reversed bool, k radio.Cont) radio.Cont {
	p := d.p
	return radio.Eval(func() radio.Cont {
		offering := d.joined
		capturing := !d.joined
		if reversed {
			offering = d.joined || (d.inI && d.hasJoin)
			capturing = d.inI && !d.hasJoin && !d.joined
		}
		if capturing {
			return d.captureK(start, k)
		}
		end := radio.Then(radio.Sleep(start+p.mergeSlots()-1), k)
		if !offering {
			return end
		}
		return d.castWindowK(start,
			func() (int, any) {
				return castSend, offerBody{layer: d.layer, cid: d.cid, cidID: d.cidID, id: d.id}
			}, nil, end)
	})
}

// captureK is a capturing device's merge iteration: it listens for
// offers, gathers a candidate to the root, floods the root's winner
// down, relabels from the winner up and down the old tree and commits
// the new label. It is built at iteration start.
func (d *dev) captureK(start uint64, k radio.Cont) radio.Cont {
	p := d.p
	t1 := start + p.castSlots()
	t2 := t1 + p.upSlots()
	t3 := t2 + p.downSlots()
	t4 := t3 + p.upSlots()
	d.captured = nil
	cand := -1

	relabelSend := func() (any, bool) {
		if d.newLayer >= 0 {
			return relabelBody{from: d.index, fromID: d.id,
				layer: d.newLayer, cid: d.newCID, cidID: d.newCIDID}, true
		}
		return nil, false
	}
	acceptUp := func(m any) {
		rb, ok := m.(relabelBody)
		if !ok || d.newLayer >= 0 || d.winner < 0 {
			return
		}
		d.newLayer = rb.layer + 1
		d.newPar = rb.from
		d.newParID = rb.fromID
		d.newCID = rb.cid
		d.newCIDID = rb.cidID
	}
	acceptDown := func(m any) {
		rb, ok := m.(relabelBody)
		if !ok || d.newLayer >= 0 || d.winner < 0 {
			return
		}
		d.newLayer = rb.layer + 1
		d.newPar = d.parent
		d.newParID = d.parentID
		d.newCID = rb.cid
		d.newCIDID = rb.cidID
	}

	// Commit (after the relabel down-pass).
	commit := radio.Do(func() {
		if d.newLayer >= 0 {
			d.layer = d.newLayer
			d.parent = d.newPar
			d.parentID = d.newParID
			d.cid = d.newCID
			d.cidID = d.newCIDID
			d.joined = true
		}
	}, k)
	// Relabel from the winner along the old tree.
	relabelDown := d.downPassK(t4, relabelSend, acceptDown, commit)
	relabelUp := d.upPassK(t3, relabelSend, acceptUp, relabelDown)
	prepRelabel := radio.Do(func() {
		d.newLayer, d.newPar, d.newParID = -1, -1, 0
		if d.winner == d.index && d.captured != nil {
			if ob, ok := d.captured.body.(offerBody); ok {
				d.newLayer = ob.layer + 1
				d.newPar = d.captured.from
				d.newParID = ob.id
				d.newCID = ob.cid
				d.newCIDID = ob.cidID
			}
		}
	}, relabelUp)
	// Decision flood.
	decide := d.downPassK(t2,
		func() (any, bool) { return d.winner, d.winner >= 0 },
		func(m any) {
			if w, ok := m.(int); ok {
				d.winner = w
			}
		},
		prepRelabel)
	pickWinner := radio.Do(func() {
		d.winner = -1
		if d.parent < 0 && cand >= 0 {
			d.winner = cand
		}
	}, decide)
	// Gather a candidate to the root.
	gather := d.upPassK(t1,
		func() (any, bool) { return cand, cand >= 0 },
		func(m any) {
			if c, ok := m.(int); ok && cand < 0 {
				cand = c
			}
		},
		pickWinner)
	// Offers: a device that hears one is its cluster's candidate.
	return d.castWindowK(start,
		func() (int, any) { return castRecv, nil },
		func(m addressed) {
			d.captured = &m
			cand = d.index
		},
		gather)
}

type offerBody struct {
	layer, cid, cidID, id int
}

type relabelBody struct {
	from, fromID, layer, cid, cidID int
}

// ackSlots is the singleton-detection pass: one slot per ID.
func (p Params) ackSlots() uint64 { return uint64(p.IDSpace) }

// ackPassK: every vertex that merged under an external parent this
// refinement beeps to its new parent; every other vertex listens for
// such beeps, then the bit is ORed up to the root. In LOCAL the beeps
// share the pass's first slot, addressed to the parent; in CD a vertex
// beeps in its parent's ID slot and listens in its own. Occupies
// ackSlots + upSlots.
func (d *dev) ackPassK(start uint64, mergedExternal func() bool, k radio.Cont) radio.Cont {
	p := d.p
	gotJoiner := false
	up := d.upPassK(start+p.ackSlots(),
		func() (any, bool) { return orBit(gotJoiner), gotJoiner },
		func(m any) {
			if _, ok := m.(orBit); ok {
				gotJoiner = true
			}
		},
		radio.Do(func() {
			if d.parent < 0 {
				d.hasJoin = gotJoiner
			}
		}, k))
	endBeeps := radio.Then(radio.Sleep(start+p.ackSlots()-1), up)
	return radio.Eval(func() radio.Cont {
		gotJoiner = false
		if p.Model == radio.Local {
			if mergedExternal() {
				return radio.Then(radio.Transmit(start, addressed{from: d.index, to: d.parent}), endBeeps)
			}
			return radio.Recv(start, func(fb radio.Feedback) radio.Cont {
				for _, raw := range fb.Payloads() {
					if m, ok := raw.(addressed); ok && m.to == d.index {
						gotJoiner = true
					}
				}
				return endBeeps
			})
		}
		if mergedExternal() {
			return radio.Then(radio.Transmit(start+uint64(d.parentID-1), 1), endBeeps)
		}
		return radio.Recv(start+uint64(d.id-1), func(fb radio.Feedback) radio.Cont {
			if fb.Status != radio.Silence {
				gotJoiner = true
			}
			return endBeeps
		})
	})
}

type orBit bool

// mergeSlots is the slot cost of one merge iteration: the offer
// window, candidate gather, decision flood, and the two relabel passes.
func (p Params) mergeSlots() uint64 {
	return p.castSlots() + p.upSlots() + p.downSlots() + p.upSlots() + p.downSlots()
}

// rulingSlots is the slot cost of one ruling-set computation: the CD
// sequential recursion runs 2^bits - 1 combines, the LOCAL parallel
// recursion runs bits levels of two cluster rounds plus a status flood.
func (p Params) rulingSlots() uint64 {
	if p.Model == radio.CD {
		combines := uint64(1)<<uint(p.bits()) - 1
		return combines * p.combineSlots()
	}
	round := p.downSlots() + p.castSlots() + p.upSlots()
	return uint64(p.bits()) * (2*round + p.downSlots())
}

// refineSlots is the slot cost of one clustering refinement.
func (p Params) refineSlots() uint64 {
	total := p.rulingSlots() + uint64(p.MergeIters)*p.mergeSlots()
	if p.Model == radio.CD {
		// ack pass + one reversed merge iteration (singleton fix).
		total += p.ackSlots() + p.upSlots() + p.mergeSlots()
	}
	return total
}

// Slots returns the full schedule length.
func (p Params) Slots() uint64 {
	// Refinements, then the final up+down message relay.
	return uint64(p.Refinements)*p.refineSlots() + p.upSlots() + p.downSlots()
}

// refinementK runs one clustering iteration: ruling set, merge rounds,
// and (in CD) the singleton fix.
func (d *dev) refinementK(start uint64, k radio.Cont) radio.Cont {
	p := d.p
	merge := p.mergeSlots()
	mergeStart := start + p.rulingSlots()
	mergedExternal := false
	var tail radio.Cont = k
	if p.Model == radio.CD {
		ackStart := mergeStart + uint64(p.MergeIters)*merge
		fixStart := ackStart + p.ackSlots() + p.upSlots()
		tail = d.ackPassK(ackStart, func() bool { return mergedExternal },
			d.mergeIterationK(fixStart, true, k))
	}
	var iter func(i int, t uint64) radio.Cont
	iter = func(i int, t uint64) radio.Cont {
		if i >= p.MergeIters {
			return tail
		}
		var before bool
		return radio.Do(func() { before = d.joined },
			d.mergeIterationK(t, false,
				radio.Do(func() {
					if !before && d.joined {
						mergedExternal = true
					}
				}, radio.Eval(func() radio.Cont { return iter(i+1, t+merge) }))))
	}
	afterRS := radio.Do(func() {
		// Ruling-set clusters initiate the new clustering as-is.
		if d.inI {
			d.joined = true
		}
		mergedExternal = false
	}, iter(0, mergeStart))
	var rs radio.Cont
	if p.Model == radio.CD {
		rs = d.rulingSetCDK(start, afterRS)
	} else {
		rs = d.rulingSetLocalK(start, afterRS)
	}
	return radio.Do(func() {
		d.joined = false
		d.hasJoin = false
	}, rs)
}

// DeviceResult is one device's final view.
type DeviceResult struct {
	Informed bool
	Msg      any
	Label    int
	Parent   int
	Cluster  int
}

// Proc returns the deterministic Broadcast device as an inline step
// proc. Procs are single-use.
func Proc(p Params, isSource bool, msg any, out *DeviceResult) radio.Proc {
	return radio.ContProc(func(ch radio.Channel) radio.Cont {
		d := &dev{
			p:     p,
			index: ch.Index(),
			id:    ch.AssignedID(),
			layer: 0, parent: -1, parentID: 0,
		}
		d.cid, d.cidID = d.index, d.id
		has := isSource
		body := msg
		relayStart := uint64(1) + uint64(p.Refinements)*p.refineSlots()
		// Relay the message up to the root and flood it down.
		finish := radio.Do(func() {
			out.Informed = has
			if has {
				out.Msg = body
			}
			out.Label = d.layer
			out.Parent = d.parent
			out.Cluster = d.cid
		}, nil)
		relayRecv := func(m any) {
			if mb, ok := m.(msgBody); ok && !has {
				has, body = true, mb.body
			}
		}
		relaySend := func() (any, bool) { return msgBody{body: body}, has }
		relay := d.upPassK(relayStart, relaySend, relayRecv,
			d.downPassK(relayStart+p.upSlots(), relaySend, relayRecv, finish))
		var chain radio.Cont = relay
		for r := p.Refinements - 1; r >= 0; r-- {
			t := uint64(1) + uint64(r)*p.refineSlots()
			chain = d.refinementK(t, chain)
		}
		return chain
	})
}

type msgBody struct{ body any }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
