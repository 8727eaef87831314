package radio

import "math/rand/v2"

// Channel is the device-side view shared by the physical network (*Env)
// and virtual channels layered on top of it (such as the Theorem 3
// LOCAL-over-No-CD simulation in package coloring). Procs written
// against Channel run unchanged on either.
//
// Channel is purely informational: devices act on the network by
// returning Actions from Step, never by calling into the engine, so a
// virtual channel only has to answer queries — the driver that steps
// the inner proc interprets its actions. It answers only what devices
// read at run time: their identity and IDs, the network size, their
// random stream and their clock. Delta, the diameter and the model are
// global knowledge that every protocol takes from its Params.
type Channel interface {
	// Index is the device's vertex index (see Env.Index).
	Index() int
	// N is the number of vertices.
	N() int
	// IDSpace is the deterministic ID bound N (0 if unassigned).
	IDSpace() int
	// AssignedID is the device's distinct ID in {1..IDSpace}, or 0.
	AssignedID() int
	// Rand is the device's private random stream.
	Rand() *rand.Rand
	// Now is the device's local clock (last slot acted or slept through).
	Now() uint64
}

// Env satisfies Channel.
var _ Channel = (*Env)(nil)
