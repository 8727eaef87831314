package fabric

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"encoding/json"

	"repro/internal/experiment"
	"repro/internal/telemetry"
)

// CoordinatorConfig parameterizes StartCoordinator.
type CoordinatorConfig struct {
	// Controller is the lease controller the coordinator drives. The
	// coordinator takes ownership: it is the only goroutine that touches
	// it, and Close is called when the run ends. With a checkpoint, a
	// result is submitted to the journal and merged once its group's
	// fsync has returned; the coordinator keeps granting leases in the
	// meantime.
	Controller *experiment.LeaseController
	// ListenAddr is the TCP address workers dial (host:port; port 0
	// picks a free one — Addr returns the resolved address).
	ListenAddr string
	// LeaseTimeout bounds worker silence: a worker that sends nothing
	// for this long is evicted and its leases reissued, and an
	// outstanding lease older than half this is eligible for stealing
	// when workers idle. Default 10s.
	LeaseTimeout time.Duration
	// Telemetry, if non-nil, receives the fleet view: the per-worker
	// snapshots workers ship inside heartbeat and result frames
	// (Recorder.WorkerShard), lease round-trip latencies, lifecycle
	// events, and per-worker /metrics gauges. The welcome tells workers
	// whether it is set; without it they ship no snapshots. Committed
	// counters and traces flow through the controller's own recorder;
	// pass the same one here.
	Telemetry *telemetry.Recorder
	// Interrupt, if non-nil, stops the run gracefully when receivable:
	// no new leases are issued, workers are dismissed, and Wait returns
	// experiment.ErrInterrupted. The journal holds every admitted batch:
	// closing the controller syncs the records still queued.
	Interrupt <-chan struct{}
	// Log receives worker join/leave/evict lines; nil discards them.
	Log *log.Logger
}

// queuedLeases is how many fresh leases a worker holds beyond its
// capacity: one waits in the worker's lease buffer while its executors
// run, so an executor that finishes a batch starts the next at once
// instead of after a result-to-lease round trip.
const queuedLeases = 1

// maxCapacity caps the capacity a hello may claim. The capacity is
// worker-supplied and sizes the worker's outbound queue, so an
// unclamped one would let a single hello make the coordinator allocate
// without bound.
const maxCapacity = 1024

// workerState is the coordinator's view of one connected worker. Owned
// by the event loop.
type workerState struct {
	id       int
	name     string
	addr     string
	capacity int
	lastSeen time.Time
	// held maps each outstanding lease to its issue time.
	held map[experiment.Lease]time.Time
	// out feeds the connection's writer goroutine; closing it hangs up.
	// It holds everything the coordinator can owe the worker at once —
	// the welcome, capacity+queuedLeases leases and the done frame — so
	// send never drops a frame.
	out chan *msg
	// flushed is closed by the writer goroutine once out is drained, so
	// the coordinator can wait for the final done frame to reach the
	// wire before the process exits.
	flushed chan struct{}
	conn    net.Conn
}

// coordinator events, all delivered to the single event-loop goroutine.
type evJoin struct {
	conn  net.Conn
	hello *helloMsg
}
type evMsg struct {
	id int
	m  *msg
}
type evGone struct {
	id  int
	err error
}
type evStatus struct{ reply chan FabricStatus }

// Coordinator runs one distributed sweep: it listens for workers,
// leases batches, admits results, and terminates when the controller
// reports every cell stopped.
type Coordinator struct {
	cfg      CoordinatorConfig
	ln       net.Listener
	events   chan any
	done     chan struct{} // closed when the event loop exits
	report   *experiment.Report
	err      error
	lastView struct {
		sync.Mutex
		s FabricStatus
	}
}

// FabricStatus is the /fabric page document: per-worker health and
// lease ages plus run progress.
type FabricStatus struct {
	Addr            string         `json:"addr"`
	Version         string         `json:"version"`
	Workers         []WorkerStatus `json:"workers"`
	Leases          int            `json:"leases"`
	Cells           int            `json:"cells"`
	StoppedCells    int            `json:"stoppedCells"`
	CommittedTrials int            `json:"committedTrials"`
	Done            bool           `json:"done"`
	// Fleet is the telemetry view of every worker that took part —
	// including evicted ones, flagged stale with their last shipped
	// snapshot retained. Present only when the coordinator runs with
	// telemetry.
	Fleet []telemetry.WorkerSnapshot `json:"fleet,omitempty"`
}

// WorkerStatus describes one connected worker.
type WorkerStatus struct {
	Name          string  `json:"name"`
	Addr          string  `json:"addr"`
	Capacity      int     `json:"capacity"`
	Leases        []Age   `json:"leases,omitempty"`
	LastSeenMilli float64 `json:"lastSeenMilli"`
}

// Age is one outstanding lease and how long it has been out.
type Age struct {
	Lease    experiment.Lease `json:"lease"`
	AgeMilli float64          `json:"ageMilli"`
}

// StartCoordinator binds the listener and starts the event loop. The
// run proceeds in the background; Wait blocks for the outcome.
func StartCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Controller == nil {
		return nil, errors.New("fabric: CoordinatorConfig.Controller is required")
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 10 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{cfg: cfg, ln: ln, events: make(chan any, 64), done: make(chan struct{})}
	cfg.Telemetry.Phase("trials")
	cfg.Telemetry.AddMetrics(co.writeFabricMetrics)
	go co.acceptLoop()
	go co.run()
	return co, nil
}

// writeFabricMetrics appends the per-worker families to the /metrics
// exposition from the last published view — never the event loop, so a
// scrape cannot stall the run.
func (co *Coordinator) writeFabricMetrics(w io.Writer) {
	co.lastView.Lock()
	s := co.lastView.s
	co.lastView.Unlock()
	fmt.Fprintf(w, "# HELP sweep_fabric_workers Connected fabric workers.\n# TYPE sweep_fabric_workers gauge\n")
	fmt.Fprintf(w, "sweep_fabric_workers %d\n", len(s.Workers))
	fmt.Fprintf(w, "# HELP sweep_fabric_worker_leases Outstanding leases per worker.\n# TYPE sweep_fabric_worker_leases gauge\n")
	for _, ws := range s.Workers {
		fmt.Fprintf(w, "sweep_fabric_worker_leases{worker=\"%s\"} %d\n", telemetry.EscapeLabelValue(ws.Name), len(ws.Leases))
	}
	fmt.Fprintf(w, "# HELP sweep_fabric_worker_oldest_lease_age_seconds Age of each worker's oldest outstanding lease.\n# TYPE sweep_fabric_worker_oldest_lease_age_seconds gauge\n")
	for _, ws := range s.Workers {
		var oldest float64
		if len(ws.Leases) > 0 {
			oldest = ws.Leases[0].AgeMilli / 1e3 // published sorted, oldest first
		}
		fmt.Fprintf(w, "sweep_fabric_worker_oldest_lease_age_seconds{worker=\"%s\"} %g\n", telemetry.EscapeLabelValue(ws.Name), oldest)
	}
	fmt.Fprintf(w, "# HELP sweep_fabric_worker_last_seen_seconds Seconds since each worker's last frame.\n# TYPE sweep_fabric_worker_last_seen_seconds gauge\n")
	for _, ws := range s.Workers {
		fmt.Fprintf(w, "sweep_fabric_worker_last_seen_seconds{worker=\"%s\"} %g\n", telemetry.EscapeLabelValue(ws.Name), ws.LastSeenMilli/1e3)
	}
}

// Addr returns the resolved listen address.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Wait blocks until the run completes (report, nil), is interrupted
// (nil, experiment.ErrInterrupted), or dies on a fatal error such as a
// journal write failure.
func (co *Coordinator) Wait() (*experiment.Report, error) {
	<-co.done
	return co.report, co.err
}

// MountStatus registers the /fabric endpoint on mux — designed to be
// passed to telemetry.StartStatusServer so worker health lives next to
// /status.
func (co *Coordinator) MountStatus(mux *http.ServeMux) {
	mux.HandleFunc("/fabric", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(co.Status())
	})
}

// Status snapshots the fabric. It asks the event loop and falls back
// to the last published view if the loop is busy or finished, so the
// endpoint never blocks a run and keeps answering after it ends.
func (co *Coordinator) Status() FabricStatus {
	req := evStatus{reply: make(chan FabricStatus, 1)}
	select {
	case co.events <- req:
		select {
		case s := <-req.reply:
			return s
		case <-time.After(time.Second):
		case <-co.done:
		}
	case <-co.done:
	default:
	}
	co.lastView.Lock()
	defer co.lastView.Unlock()
	return co.lastView.s
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Log != nil {
		co.cfg.Log.Printf(format, args...)
	}
}

// acceptLoop admits connections and performs the hello read off the
// event loop, so a slow dialer can't stall the run.
func (co *Coordinator) acceptLoop() {
	for {
		conn, err := co.ln.Accept()
		if err != nil {
			return // listener closed: run over
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			m, err := readMsg(conn)
			if err != nil || m.Type != msgHello || m.Hello == nil {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			select {
			case co.events <- evJoin{conn: conn, hello: m.Hello}:
			case <-co.done:
				conn.Close()
			}
		}(conn)
	}
}

// run is the event loop — the only goroutine that touches the
// controller and the worker table.
func (co *Coordinator) run() {
	defer close(co.done)
	defer co.ln.Close()

	lc := co.cfg.Controller
	rec := co.cfg.Telemetry
	workers := map[int]*workerState{}
	nextID := 1
	version := telemetry.CodeVersion()
	tick := time.NewTicker(co.cfg.LeaseTimeout / 4)
	defer tick.Stop()

	finish := func(rep *experiment.Report, err error) {
		for _, w := range workers {
			w.send(&msg{Type: msgDone})
			close(w.out)
		}
		// Wait (bounded) for each writer to flush its done frame: the
		// caller may be a CLI that exits the moment we return, and a
		// worker that never hears done redials until its patience runs
		// out instead of exiting cleanly.
		deadline := time.After(2 * time.Second)
		for _, w := range workers {
			select {
			case <-w.flushed:
			case <-deadline:
			}
		}
		if cerr := lc.Close(); cerr != nil && err == nil {
			err = cerr
		}
		co.report, co.err = rep, err
	}

	publish := func() FabricStatus {
		s := FabricStatus{Addr: co.Addr(), Version: version, Done: lc.Done()}
		p := lc.Progress()
		s.Cells, s.StoppedCells, s.CommittedTrials = p.Cells, p.StoppedCells, p.CommittedTrials
		now := time.Now()
		for _, w := range workers {
			ws := WorkerStatus{Name: w.name, Addr: w.addr, Capacity: w.capacity,
				LastSeenMilli: float64(now.Sub(w.lastSeen)) / float64(time.Millisecond)}
			for l, t := range w.held {
				ws.Leases = append(ws.Leases, Age{Lease: l, AgeMilli: float64(now.Sub(t)) / float64(time.Millisecond)})
			}
			sort.Slice(ws.Leases, func(i, j int) bool { return ws.Leases[i].AgeMilli > ws.Leases[j].AgeMilli })
			s.Leases += len(ws.Leases)
			s.Workers = append(s.Workers, ws)
		}
		sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Name < s.Workers[j].Name })
		s.Fleet = rec.FleetWorkers()
		co.lastView.Lock()
		co.lastView.s = s
		co.lastView.Unlock()
		return s
	}

	// topUp fills one worker with fresh leases to its capacity plus
	// queuedLeases, then — in the endgame, when nothing fresh is
	// issuable but the run isn't done — up to its capacity with
	// duplicates of the oldest sufficiently old leases held elsewhere
	// (work stealing), so a stolen duplicate never waits in the queued
	// slot. Admission deduplicates, so the duplicate is pure insurance
	// against the holder being slow or dead.
	topUp := func(w *workerState) {
		now := time.Now()
		for len(w.held) < w.capacity+queuedLeases {
			l, ok := lc.Next()
			if !ok {
				break
			}
			w.held[l] = now
			w.send(&msg{Type: msgLease, Lease: &l})
			rec.Event("lease-grant", map[string]any{"worker": w.name, "cell": l.Cell, "lo": l.Lo, "hi": l.Hi})
		}
		stealAge := co.cfg.LeaseTimeout / 2
		for len(w.held) < w.capacity {
			var oldest *workerState
			var oldestLease experiment.Lease
			var oldestAt time.Time
			for _, o := range workers {
				for l, t := range o.held {
					if _, mine := w.held[l]; mine || o == w {
						continue
					}
					if now.Sub(t) >= stealAge && (oldest == nil || t.Before(oldestAt)) {
						oldest, oldestLease, oldestAt = o, l, t
					}
				}
			}
			if oldest == nil {
				break
			}
			w.held[oldestLease] = now
			w.send(&msg{Type: msgLease, Lease: &oldestLease})
			co.logf("fabric: stole lease cell=%d [%d,%d) from %s for %s",
				oldestLease.Cell, oldestLease.Lo, oldestLease.Hi, oldest.name, w.name)
			rec.Event("lease-steal", map[string]any{"worker": w.name, "from": oldest.name,
				"cell": oldestLease.Cell, "lo": oldestLease.Lo, "hi": oldestLease.Hi})
		}
	}

	// evict removes a worker and returns its leases to the pool. A
	// lease is only released if no other worker also holds a duplicate.
	evict := func(w *workerState, why string) {
		delete(workers, w.id)
		for l := range w.held {
			dup := false
			for _, o := range workers {
				if _, ok := o.held[l]; ok {
					dup = true
					break
				}
			}
			if !dup {
				lc.Release(l)
				rec.Event("lease-release", map[string]any{"worker": w.name, "cell": l.Cell, "lo": l.Lo, "hi": l.Hi})
			}
		}
		close(w.out)
		w.conn.Close()
		rec.WorkerGone(w.name)
		rec.Event("worker-leave", map[string]any{"worker": w.name, "reason": why, "leases": len(w.held)})
		co.logf("fabric: worker %s left (%s), %d leases returned", w.name, why, len(w.held))
		for _, o := range workers {
			topUp(o)
		}
	}

	if lc.Done() { // resumed journal already complete
		finish(lc.Report(), nil)
		return
	}

	for {
		select {
		case <-co.cfg.Interrupt:
			finish(nil, experiment.ErrInterrupted)
			return
		case g := <-lc.Synced():
			if err := lc.Commit(g); err != nil {
				finish(nil, err)
				return
			}
			if lc.Done() {
				publish()
				finish(lc.Report(), nil)
				return
			}
		case <-tick.C:
			now := time.Now()
			for _, w := range workers {
				if now.Sub(w.lastSeen) > co.cfg.LeaseTimeout {
					evict(w, "heartbeat lapsed")
				}
			}
			for _, w := range workers {
				topUp(w)
			}
			publish()
		case ev := <-co.events:
			switch ev := ev.(type) {
			case evStatus:
				ev.reply <- publish()
			case evJoin:
				h := ev.hello
				if h.Version != version {
					writeMsg(ev.conn, &msg{Type: msgReject,
						Reason: fmt.Sprintf("code version mismatch: coordinator %q, worker %q", version, h.Version)})
					ev.conn.Close()
					co.logf("fabric: rejected worker %s: version %q (want %q)", h.Name, h.Version, version)
					continue
				}
				capacity := min(max(1, h.Capacity), maxCapacity)
				w := &workerState{id: nextID, name: h.Name, addr: ev.conn.RemoteAddr().String(),
					capacity: capacity, lastSeen: time.Now(),
					held: map[experiment.Lease]time.Time{}, out: make(chan *msg, capacity+queuedLeases+2),
					flushed: make(chan struct{}), conn: ev.conn}
				nextID++
				workers[w.id] = w
				hb := int(co.cfg.LeaseTimeout / 3 / time.Millisecond)
				w.send(&msg{Type: msgWelcome, Welcome: &welcomeMsg{
					Version: version, Spec: lc.Config().Spec, HeartbeatMillis: max(1, hb),
					Telemetry: rec.Enabled()}})
				go writerLoop(w.conn, w.out, w.flushed)
				go co.readerLoop(w.id, w.conn)
				rec.WorkerSeen(w.name, w.addr, h.Version)
				rec.Event("worker-join", map[string]any{"worker": w.name, "addr": w.addr,
					"version": h.Version, "capacity": w.capacity})
				co.logf("fabric: worker %s joined from %s (capacity %d)", w.name, w.addr, w.capacity)
				topUp(w)
				// Re-publish immediately so /fabric and the /metrics worker
				// gauges include the newcomer without waiting out a tick.
				publish()
			case evGone:
				if w, ok := workers[ev.id]; ok {
					evict(w, fmt.Sprintf("connection lost: %v", ev.err))
				}
			case evMsg:
				w, ok := workers[ev.id]
				if !ok {
					continue // raced with eviction
				}
				w.lastSeen = time.Now()
				if ev.m.Telemetry != nil {
					// The worker's shipped snapshot replaces its fleet-table
					// entry wholesale; counters are monotonic per worker
					// process, so the view only moves forward.
					rec.WorkerShard(w.name, *ev.m.Telemetry)
				}
				switch ev.m.Type {
				case msgHeartbeat:
				case msgResult:
					why, err := admitResult(lc, rec, w.held, ev.m.Result)
					if err != nil {
						finish(nil, err)
						return
					}
					if why != "" {
						evict(w, why)
						continue
					}
					if lc.Done() {
						publish()
						finish(lc.Report(), nil)
						return
					}
					topUp(w)
				default:
					evict(w, fmt.Sprintf("unexpected %q frame", ev.m.Type))
				}
			}
		}
	}
}

// admitResult runs one result frame's record through the coordinator's
// checks, in order: the record must answer a lease in held (its
// Cell/Lo/Hi), which it then leaves; it must pass BatchRecord.Validate,
// or the lease returns to the pool; and Submit must take it (with a
// checkpoint it merges when its journal group has synced). why is the
// reason to evict the sender ("" to keep it); err is a journal write
// failure, fatal to the run.
func admitResult(lc *experiment.LeaseController, rec *telemetry.Recorder, held map[experiment.Lease]time.Time, br *experiment.BatchRecord) (why string, err error) {
	if br == nil {
		return "result frame without payload", nil
	}
	l := experiment.Lease{Cell: br.Cell, Lo: br.Lo, Hi: br.Hi}
	issued, ok := held[l]
	if !ok {
		return fmt.Sprintf("result for unheld lease %+v", l), nil
	}
	rec.LeaseRoundTrip(time.Since(issued))
	delete(held, l)
	if err := br.Validate(); err != nil {
		// The worker computed garbage: its fault, not the run's.
		lc.Release(l)
		return fmt.Sprintf("bad batch record: %v", err), nil
	}
	_, err = lc.Submit(br)
	if errors.Is(err, experiment.ErrBadRecord) {
		// A record that does not fit its cell costs its sender, not the
		// run: Submit cleared the batch's in-flight mark, so it is issued
		// again.
		return err.Error(), nil
	}
	return "", err
}

// send enqueues without blocking the event loop. The queue is sized
// for everything the coordinator can owe a worker (see workerState.out)
// and a lease leaves held only once its result shows the worker read
// it, so an honest worker's queue never fills. The default case guards
// the event loop against a worker that answers leases it has not read:
// its dropped frame stays held, and the endgame steals it for another
// worker.
func (w *workerState) send(m *msg) {
	select {
	case w.out <- m:
	default:
	}
}

// writerLoop drains a worker's outbound queue onto its connection.
func writerLoop(conn net.Conn, out <-chan *msg, flushed chan<- struct{}) {
	defer close(flushed)
	for m := range out {
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if err := writeMsg(conn, m); err != nil {
			// The reader loop observes the broken connection and
			// reports the worker gone; just stop writing.
			return
		}
	}
}

// readerLoop delivers a worker's frames to the event loop; on any read
// error (EOF the instant a SIGKILLed worker's socket closes) it
// reports the worker gone.
func (co *Coordinator) readerLoop(id int, conn net.Conn) {
	for {
		m, err := readMsg(conn)
		if err != nil {
			select {
			case co.events <- evGone{id: id, err: err}:
			case <-co.done:
			}
			return
		}
		select {
		case co.events <- evMsg{id: id, m: m}:
		case <-co.done:
			return
		}
	}
}
