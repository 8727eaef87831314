package fabric

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/radio"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ErrVersionMismatch reports that the coordinator refused this worker
// because the two binaries are different code versions. Not retryable:
// the caller should exit with a configuration error, not redial.
var ErrVersionMismatch = errors.New("fabric: coordinator refused worker: code version mismatch")

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// Addr is the coordinator's host:port.
	Addr string
	// Name identifies this worker in coordinator logs and on /fabric
	// (default host:pid).
	Name string
	// Capacity is how many leases run concurrently (default
	// GOMAXPROCS).
	Capacity int
	// Patience bounds how long the worker keeps redialing an
	// unreachable coordinator before giving up (default 60s). The
	// window restarts after every successful session, so a worker
	// outlives any number of coordinator restarts as long as each
	// outage stays under Patience.
	Patience time.Duration
	// Interrupt, if non-nil, makes RunWorker return ErrInterrupted when
	// receivable.
	Interrupt <-chan struct{}
	// Log receives session lines; nil discards them.
	Log *log.Logger
}

// errDone distinguishes a clean "run complete" disconnect.
var errDone = errors.New("fabric: run complete")

// RunWorker dials the coordinator and executes leases until the
// coordinator says done (returns nil), the version check fails
// (ErrVersionMismatch), the redial patience runs out, or Interrupt
// fires (experiment.ErrInterrupted). Connection loss mid-session —
// including a coordinator restart — is not an error: the worker
// abandons in-flight work (the coordinator's journal and lease
// reassignment make that safe) and redials with bounded exponential
// backoff.
func RunWorker(cfg WorkerConfig) error {
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = runtime.GOMAXPROCS(0)
	}
	if cfg.Patience <= 0 {
		cfg.Patience = 60 * time.Second
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			cfg.Log.Printf(format, args...)
		}
	}
	// One recorder for the life of the worker process — not per session —
	// so the counters the coordinator aggregates stay monotonic across
	// redials: a worker that rejoins resumes its counts, it never resets.
	rec := telemetry.New()

	backoff := 100 * time.Millisecond
	deadline := time.Now().Add(cfg.Patience)
	for {
		select {
		case <-cfg.Interrupt:
			return experiment.ErrInterrupted
		default:
		}
		conn, err := net.DialTimeout("tcp", cfg.Addr, 5*time.Second)
		if err == nil {
			err = workerSession(conn, cfg, rec, logf)
			conn.Close()
			switch {
			case errors.Is(err, errDone):
				return nil
			case errors.Is(err, ErrVersionMismatch), errors.Is(err, experiment.ErrInterrupted):
				return err
			}
			logf("fabric: session ended: %v; redialing", err)
			// The session worked; treat the outage as fresh.
			backoff = 100 * time.Millisecond
			deadline = time.Now().Add(cfg.Patience)
		} else {
			logf("fabric: dial %s: %v", cfg.Addr, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fabric: coordinator %s unreachable for %v", cfg.Addr, cfg.Patience)
		}
		select {
		case <-cfg.Interrupt:
			return experiment.ErrInterrupted
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 3*time.Second {
			backoff = 3 * time.Second
		}
	}
}

// workerSession runs one connection's lifetime: handshake, then
// executor goroutines folding leases into results until the stream
// breaks or the coordinator sends done. rec is the process-lifetime
// recorder whose snapshot ships on every outbound frame when the
// coordinator records it.
func workerSession(conn net.Conn, cfg WorkerConfig, rec *telemetry.Recorder, logf func(string, ...any)) error {
	hello := &msg{Type: msgHello, Hello: &helloMsg{
		Name: cfg.Name, Version: telemetry.CodeVersion(), Capacity: cfg.Capacity}}
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := writeMsg(conn, hello); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, err := readMsg(conn)
	if err != nil {
		return err
	}
	conn.SetReadDeadline(time.Time{})
	switch m.Type {
	case msgReject:
		logf("fabric: rejected: %s", m.Reason)
		return ErrVersionMismatch
	case msgWelcome:
		if m.Welcome == nil {
			return errors.New("fabric: welcome frame without payload")
		}
	default:
		return fmt.Errorf("fabric: expected welcome, got %q", m.Type)
	}
	w := m.Welcome

	// Both sides resolve the identical Runner from the normalized spec;
	// seeds are positional, so a lease fully determines its trials.
	runner, err := sweep.NewRunner(w.Spec)
	if err != nil {
		return fmt.Errorf("fabric: coordinator spec does not resolve: %w", err)
	}
	tracked := make([][]workload.MeasureInfo, len(runner.Cells()))
	for cell := range tracked {
		tracked[cell] = experiment.TrackedMeasures(runner, cell)
	}
	logf("fabric: joined %s: %d cells, capacity %d", cfg.Addr, len(tracked), cfg.Capacity)

	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	defer halt()

	leases := make(chan experiment.Lease, cfg.Capacity)
	results := make(chan *msg, cfg.Capacity)
	var wg sync.WaitGroup
	for range cfg.Capacity {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sims := &radio.SimCache{}
			for {
				var l experiment.Lease
				select {
				case l = <-leases:
				case <-stop:
					return
				}
				buf := make([]sweep.Trial, l.Hi-l.Lo)
				runner.RunBatch(l.Cell, l.Lo, l.Hi, sims, rec, buf)
				br := experiment.FoldBatch(tracked[l.Cell], l.Cell, l.Lo, l.Hi, buf)
				select {
				case results <- &msg{Type: msgResult, Result: br}:
				case <-stop:
					return
				}
			}
		}()
	}

	// Writer: results and idle heartbeats share the connection.
	writeErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		hb := time.Duration(w.HeartbeatMillis) * time.Millisecond
		if hb <= 0 {
			hb = time.Second
		}
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			var out *msg
			select {
			case out = <-results:
			case <-t.C:
				out = &msg{Type: msgHeartbeat}
			case <-stop:
				return
			}
			// With a recording coordinator every outbound frame carries
			// the worker's telemetry: heartbeats keep the fleet view fresh
			// while idle, and result frames make it exact at run end (a
			// batch's counters are updated before its result is queued).
			if w.Telemetry {
				snap := rec.Snapshot()
				out.Telemetry = &snap
			}
			conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if err := writeMsg(conn, out); err != nil {
				select {
				case writeErr <- err:
				default:
				}
				halt()
				return
			}
		}
	}()

	// Interrupt watcher: closing the connection is what unblocks the
	// blocking read below.
	var interrupted bool
	if cfg.Interrupt != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-cfg.Interrupt:
				interrupted = true
				halt()
				conn.Close()
			case <-stop:
			}
		}()
	}

	// Reader drives the session on this goroutine.
	var sessionErr error
	for {
		m, err := readMsg(conn)
		if err != nil {
			select {
			case werr := <-writeErr:
				sessionErr = werr
			default:
				sessionErr = err
			}
			break
		}
		switch m.Type {
		case msgLease:
			if m.Lease == nil {
				sessionErr = errors.New("fabric: lease frame without payload")
			} else {
				select {
				case leases <- *m.Lease:
				case <-stop:
				}
			}
		case msgDone:
			sessionErr = errDone
		default:
			sessionErr = fmt.Errorf("fabric: unexpected %q frame", m.Type)
		}
		if sessionErr != nil {
			break
		}
	}
	halt()
	conn.Close()
	wg.Wait()
	if interrupted {
		return experiment.ErrInterrupted
	}
	return sessionErr
}
