// Package fabric is the distributed sweep subsystem: a coordinator
// (cmd/sweepd) that owns the adaptive controller — spec, stopping
// decisions, checkpoint journal — and hands out batch leases over TCP
// to workers (cmd/sweep -worker) that run the trials and stream back
// folded batch records.
//
// The division of labor keeps every determinism invariant of
// internal/experiment intact: workers only ever execute (cell, lo, hi)
// batches with positional seeds and fold them into BatchRecords
// (experiment.FoldBatch), sent as the JSON the checkpoint journal
// writes, while the coordinator admits records through
// experiment.LeaseController — the same lease API a local run drives
// with in-process workers. Report JSON, committed trial counts,
// convergence traces, and the manifest's deterministic section are
// byte-identical to a single-machine run at any worker count, any
// lease-reassignment pattern, and across coordinator restarts.
//
// Fault tolerance is lease-based: the coordinator tracks per-worker
// liveness (any frame counts; idle workers heartbeat), evicts workers
// silent past the lease timeout, releases their leases for reissue,
// and near the end of a run duplicates the oldest outstanding lease to
// idle workers (work stealing). Duplicated or stale results are safe:
// admission deduplicates on the fixed batch grid, so a twice-run batch
// merges exactly once. Workers redial with bounded exponential backoff
// and re-register after a coordinator restart; the coordinator's
// journal resume re-issues exactly the batches that were in flight.
//
// Both sides stamp telemetry.CodeVersion into the handshake and the
// coordinator refuses mismatched workers: byte-identity across
// machines is only claimed at one code version.
package fabric

import (
	"encoding/binary"
	"fmt"
	"io"

	"encoding/json"

	"repro/internal/experiment"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Message types. The protocol is length-prefixed JSON: each frame is a
// uint32 LE payload length followed by one JSON-encoded msg. The
// worker speaks first (hello), the coordinator answers with welcome or
// reject, and from then on the coordinator sends lease/done while the
// worker sends result/heartbeat.
const (
	msgHello     = "hello"     // worker → coordinator: name, version, capacity
	msgWelcome   = "welcome"   // coordinator → worker: spec, heartbeat interval
	msgReject    = "reject"    // coordinator → worker: refusal (version mismatch)
	msgLease     = "lease"     // coordinator → worker: run batch [lo,hi) of cell
	msgResult    = "result"    // worker → coordinator: folded batch record
	msgHeartbeat = "heartbeat" // worker → coordinator: liveness while idle
	msgDone      = "done"      // coordinator → worker: run complete, disconnect
)

// maxFrame bounds a single frame. Specs and batch records are tiny;
// anything larger is a corrupt or hostile stream.
const maxFrame = 16 << 20

// msg is the wire envelope. Exactly one payload pointer is set,
// matching Type (heartbeat and done carry none).
type msg struct {
	Type    string            `json:"type"`
	Hello   *helloMsg         `json:"hello,omitempty"`
	Welcome *welcomeMsg       `json:"welcome,omitempty"`
	Lease   *experiment.Lease `json:"lease,omitempty"`
	// Result is one executed batch, folded into the record the journal
	// writes (the same JSON): its Cell/Lo/Hi name the lease it answers.
	Result *experiment.BatchRecord `json:"result,omitempty"`
	// Telemetry rides worker → coordinator frames (heartbeat and
	// result) when the welcome asked for it: the worker's telemetry
	// snapshot, which the coordinator folds into its fleet view
	// (Recorder.WorkerShard). Worker counters are monotonic for the life
	// of the worker process, so redials resume rather than reset them.
	// Optional — an absent snapshot just leaves the fleet view where it
	// was.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Reason explains a reject.
	Reason string `json:"reason,omitempty"`
}

// helloMsg introduces a worker.
type helloMsg struct {
	// Name identifies the worker in logs and on the /fabric page
	// (default host:pid, set by the worker).
	Name string `json:"name"`
	// Version is the worker's telemetry.CodeVersion; the coordinator
	// rejects a mismatch.
	Version string `json:"version"`
	// Capacity is how many leases the worker runs concurrently.
	Capacity int `json:"capacity"`
}

// welcomeMsg accepts a worker and ships everything it needs to execute
// leases: the normalized spec (the worker builds its own sweep.Runner
// from it — seeds are positional, so both sides resolve the identical
// trial stream) and the liveness contract.
type welcomeMsg struct {
	Version string     `json:"version"`
	Spec    sweep.Spec `json:"spec"`
	// HeartbeatMillis is how often an idle worker must send a frame;
	// the coordinator evicts after several missed intervals.
	HeartbeatMillis int `json:"heartbeatMillis"`
	// Telemetry says whether the coordinator records the fleet view; a
	// worker attaches its snapshot to its frames only then.
	Telemetry bool `json:"telemetry,omitempty"`
}

// writeMsg frames and writes one message. Safe for one writer per
// connection (each side dedicates a writer goroutine).
func writeMsg(w io.Writer, m *msg) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("fabric: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readMsg reads and decodes one frame.
func readMsg(r io.Reader) (*msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("fabric: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	m := &msg{}
	if err := json.Unmarshal(payload, m); err != nil {
		return nil, fmt.Errorf("fabric: bad frame: %w", err)
	}
	return m, nil
}
