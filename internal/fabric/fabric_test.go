package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// TestMain doubles as the worker-subprocess entry point: the SIGKILL
// tests re-exec the test binary with FABRIC_TEST_WORKER set to the
// coordinator address, and that copy runs a worker instead of tests.
func TestMain(m *testing.M) {
	if addr := os.Getenv("FABRIC_TEST_WORKER"); addr != "" {
		err := RunWorker(WorkerConfig{Addr: addr, Capacity: 1, Patience: 5 * time.Second})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func testSpec() sweep.Spec {
	return sweep.Spec{
		Topologies: []sweep.Topology{
			{Kind: "clique", N: 8},
			{Kind: "path", N: 16},
		},
		Algorithms: []core.Algorithm{core.AlgoBaselineDecay},
		MasterSeed: 7,
	}
}

func adaptiveConfig() experiment.Config {
	return experiment.Config{
		Spec:        testSpec(),
		BatchSize:   20,
		MinTrials:   40,
		MaxTrials:   2000,
		TargetRelCI: 0.004,
		Measures:    []string{"slots", "maxEnergy"},
	}
}

func fixedConfig() experiment.Config {
	cfg := adaptiveConfig()
	cfg.TargetRelCI = 0 // every cell runs exactly MaxTrials
	cfg.MaxTrials = 200
	return cfg
}

// slowConfig runs long enough (tight CI target, high cap — the
// resume-smoke pattern) that the fault-tolerance tests can reliably
// disrupt it mid-flight.
func slowConfig() experiment.Config {
	return experiment.Config{
		Spec: sweep.Spec{
			Topologies: []sweep.Topology{
				{Kind: "clique", N: 12},
				{Kind: "path", N: 24},
			},
			Algorithms: []core.Algorithm{core.AlgoBaselineDecay},
			MasterSeed: 9,
		},
		BatchSize:   20,
		MinTrials:   40,
		MaxTrials:   30000,
		TargetRelCI: 0.0015,
		Measures:    []string{"maxEnergy"},
	}
}

// waitProgress polls the fabric status until committed trials pass n
// (returns true) or the run ends first (false).
func waitProgress(co *Coordinator, n int) bool {
	for i := 0; i < 400; i++ {
		s := co.Status()
		if s.Done {
			return false
		}
		if s.CommittedTrials > n {
			return true
		}
		select {
		case <-co.done:
			return false
		case <-time.After(25 * time.Millisecond):
		}
	}
	return false
}

func reportJSON(t *testing.T, rep *experiment.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runFabric runs cfg through a coordinator with workers in-process
// worker goroutines and returns the report.
func runFabric(t *testing.T, cfg experiment.Config, workers int) *experiment.Report {
	t.Helper()
	lc, err := experiment.NewLeaseController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co, err := StartCoordinator(CoordinatorConfig{
		Controller: lc, ListenAddr: "127.0.0.1:0", LeaseTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := RunWorker(WorkerConfig{
				Addr: co.Addr(), Name: fmt.Sprintf("w%d", i), Capacity: 2,
				Patience: 10 * time.Second})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	rep, err := co.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The acceptance gate: coordinator plus N workers produce reports
// byte-identical to experiment.Run for both fixed-trial and adaptive
// configurations, at every worker count.
func TestFabricReportBitIdentical(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  experiment.Config
	}{{"adaptive", adaptiveConfig()}, {"fixed", fixedConfig()}} {
		t.Run(mode.name, func(t *testing.T) {
			ref, err := experiment.Run(mode.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := reportJSON(t, ref)
			for _, n := range []int{1, 2, 4} {
				got := reportJSON(t, runFabric(t, mode.cfg, n))
				if !bytes.Equal(want, got) {
					t.Errorf("%d-worker fabric report differs from single-machine run", n)
				}
			}
		})
	}
}

// A coordinator with a telemetry recorder aggregates the fleet: every
// worker's shipped snapshot lands in FleetWorkers with its identity, the
// fleet totals are exactly the sum of the per-worker snapshots, and the
// report stays byte-identical to an uninstrumented single-machine run.
func TestFabricFleetTelemetry(t *testing.T) {
	cfg := fixedConfig()
	ref, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, ref)

	rec := telemetry.New()
	cfg.Telemetry = rec
	lc, err := experiment.NewLeaseController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co, err := StartCoordinator(CoordinatorConfig{
		Controller: lc, ListenAddr: "127.0.0.1:0", LeaseTimeout: 5 * time.Second,
		Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := RunWorker(WorkerConfig{
				Addr: co.Addr(), Name: fmt.Sprintf("fleet-w%d", i), Capacity: 2,
				Patience: 10 * time.Second})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	rep, err := co.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, rep); !bytes.Equal(want, got) {
		t.Error("instrumented fabric report differs from single-machine run")
	}

	ws := rec.FleetWorkers()
	if len(ws) != workers {
		t.Fatalf("fleet has %d workers, want %d: %+v", len(ws), workers, ws)
	}
	var fleetRun, fleetSlots uint64
	for _, w := range ws {
		if w.Version != telemetry.CodeVersion() {
			t.Errorf("worker %s version = %q, want %q", w.Name, w.Version, telemetry.CodeVersion())
		}
		if w.Addr == "" {
			t.Errorf("worker %s has no resolved address", w.Name)
		}
		if w.Stale {
			t.Errorf("worker %s flagged stale after clean finish", w.Name)
		}
		fleetRun += w.Snapshot.TrialsRun
		fleetSlots += w.Snapshot.SlotsSimulated
	}
	s := rec.Snapshot()
	// The last result frame carries the counter update for its own batch,
	// so at run end the aggregate is exactly the per-worker sum.
	if s.TrialsRun != fleetRun || s.SlotsSimulated != fleetSlots {
		t.Errorf("fleet totals run/slots = %d/%d, sum of worker snapshots = %d/%d",
			s.TrialsRun, s.SlotsSimulated, fleetRun, fleetSlots)
	}
	if s.TrialsCommitted != 400 { // 2 cells x 200 fixed trials
		t.Errorf("committed = %d, want 400", s.TrialsCommitted)
	}
	if fleetRun < s.TrialsCommitted {
		t.Errorf("fleet ran %d trials, fewer than %d committed", fleetRun, s.TrialsCommitted)
	}
	if s.Latencies[telemetry.LatencyLeaseRoundTrip].Count == 0 {
		t.Error("no lease round-trips recorded")
	}
	if s.Latencies[telemetry.LatencyBatch].Count == 0 {
		t.Error("no worker batch latencies shipped")
	}
}

// A worker SIGKILLed mid-lease must not perturb the run: the
// coordinator detects the dead connection, reissues its leases, and
// the survivor finishes a byte-identical report.
func TestFabricSurvivesWorkerSIGKILL(t *testing.T) {
	cfg := slowConfig()
	ref, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, ref)

	rec := telemetry.New()
	cfg.Telemetry = rec
	lc, err := experiment.NewLeaseController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co, err := StartCoordinator(CoordinatorConfig{
		Controller: lc, ListenAddr: "127.0.0.1:0", LeaseTimeout: 3 * time.Second,
		Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}

	// The victim is a real OS process so Kill is a true SIGKILL — no
	// deferred cleanup, the socket just dies.
	victim := exec.Command(os.Args[0])
	victim.Env = append(os.Environ(), "FABRIC_TEST_WORKER="+co.Addr())
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	if !waitProgress(co, 100) {
		t.Fatal("victim worker made no progress before kill window")
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()

	done := make(chan error, 1)
	go func() {
		done <- RunWorker(WorkerConfig{
			Addr: co.Addr(), Name: "survivor", Capacity: 2, Patience: 10 * time.Second})
	}()
	rep, err := co.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("survivor worker: %v", werr)
	}
	if got := reportJSON(t, rep); !bytes.Equal(want, got) {
		t.Error("report after mid-run SIGKILL differs from single-machine run")
	}

	// The fleet table keeps the victim: flagged stale, last snapshot
	// retained (the trials it ran happened), survivor live.
	var sawStale, sawLive bool
	for _, w := range rec.FleetWorkers() {
		if w.Name == "survivor" {
			sawLive = true
			if w.Stale {
				t.Error("survivor flagged stale")
			}
			continue
		}
		sawStale = true
		if !w.Stale {
			t.Errorf("killed worker %s not flagged stale", w.Name)
		}
		if w.Snapshot.TrialsRun == 0 {
			t.Errorf("killed worker %s lost its last snapshot", w.Name)
		}
	}
	if !sawStale || !sawLive {
		t.Errorf("fleet = %+v, want victim + survivor", rec.FleetWorkers())
	}
}

// A worker that handshakes and then goes silent is evicted once its
// heartbeat lapses; its leases return to the pool and the run still
// finishes on the healthy worker.
func TestFabricEvictsIdleWorker(t *testing.T) {
	cfg := fixedConfig()
	ref, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, ref)

	lc, err := experiment.NewLeaseController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co, err := StartCoordinator(CoordinatorConfig{
		Controller: lc, ListenAddr: "127.0.0.1:0", LeaseTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Hand-rolled zombie: says hello, accepts leases, never answers,
	// never heartbeats.
	conn, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = writeMsg(conn, &msg{Type: msgHello, Hello: &helloMsg{
		Name: "zombie", Version: telemetry.CodeVersion(), Capacity: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if m, err := readMsg(conn); err != nil || m.Type != msgWelcome {
		t.Fatalf("handshake: %v %v", m, err)
	}

	// Eviction closes the zombie's connection: observe EOF within a few
	// lease timeouts.
	evicted := make(chan error, 1)
	go func() {
		for {
			if _, err := readMsg(conn); err != nil {
				evicted <- err
				return
			}
		}
	}()
	select {
	case <-evicted:
	case <-time.After(5 * time.Second):
		t.Fatal("idle worker was not evicted within 5s")
	}

	done := make(chan error, 1)
	go func() {
		done <- RunWorker(WorkerConfig{
			Addr: co.Addr(), Name: "healthy", Capacity: 2, Patience: 10 * time.Second})
	}()
	rep, err := co.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("healthy worker: %v", werr)
	}
	if got := reportJSON(t, rep); !bytes.Equal(want, got) {
		t.Error("report after idle-worker eviction differs from single-machine run")
	}
}

// A coordinator without a recorder welcomes a worker with telemetry
// off, and the worker then ships no snapshot: neither its result frame
// nor any heartbeat carries one. The coordinator is hand-rolled, the
// mirror of TestFabricEvictsIdleWorker's zombie worker.
func TestWorkerShipsNoSnapshotUnrecorded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(WorkerConfig{
			Addr: ln.Addr().String(), Name: "plain", Capacity: 1, Patience: 5 * time.Second})
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if m, err := readMsg(conn); err != nil || m.Type != msgHello {
		t.Fatalf("handshake: %v %v", m, err)
	}
	lc, err := experiment.NewLeaseController(fixedConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	l, _ := lc.Next()
	for _, m := range []*msg{
		{Type: msgWelcome, Welcome: &welcomeMsg{Version: telemetry.CodeVersion(),
			Spec: lc.Config().Spec, HeartbeatMillis: 5}},
		{Type: msgLease, Lease: &l},
	} {
		if err := writeMsg(conn, m); err != nil {
			t.Fatal(err)
		}
	}
	results, beats := 0, 0
	for results == 0 || beats < 3 {
		m, err := readMsg(conn)
		if err != nil {
			t.Fatalf("after %d results and %d heartbeats: %v", results, beats, err)
		}
		if m.Telemetry != nil {
			t.Fatalf("%s frame carries a snapshot for a coordinator that records none", m.Type)
		}
		switch m.Type {
		case msgResult:
			if m.Result == nil || m.Result.Cell != l.Cell || m.Result.Lo != l.Lo || m.Result.Hi != l.Hi {
				t.Fatalf("result %+v does not answer lease %+v", m.Result, l)
			}
			results++
		case msgHeartbeat:
			beats++
		default:
			t.Fatalf("unexpected %q frame", m.Type)
		}
	}
	if err := writeMsg(conn, &msg{Type: msgDone}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// A worker whose result has the wrong shape for its cell — here three
// moments where the cell tracks four, which decodes and validates but
// cannot merge — costs that worker its connection, not the run: the
// batch is issued again, and a healthy worker finishes a byte-identical
// report.
func TestFabricEvictsMalformedResult(t *testing.T) {
	cfg := fixedConfig()
	ref, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, ref)

	lc, err := experiment.NewLeaseController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co, err := StartCoordinator(CoordinatorConfig{
		Controller: lc, ListenAddr: "127.0.0.1:0", LeaseTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = writeMsg(conn, &msg{Type: msgHello, Hello: &helloMsg{
		Name: "garbler", Version: telemetry.CodeVersion(), Capacity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := readMsg(conn)
	for err == nil && m.Type != msgLease {
		m, err = readMsg(conn)
	}
	if err != nil {
		t.Fatalf("no lease for the garbling worker: %v", err)
	}
	l := *m.Lease
	err = writeMsg(conn, &msg{Type: msgResult, Result: &experiment.BatchRecord{
		Cell: l.Cell, Lo: l.Lo, Hi: l.Hi, Moments: make([]stats.Moments, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	// Eviction closes the garbler's connection.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for err == nil {
		m, err = readMsg(conn)
		if err == nil && m.Type == msgDone {
			t.Fatal("the run ended on a malformed result")
		}
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the garbling worker was not evicted within 5s")
	}

	done := make(chan error, 1)
	go func() {
		done <- RunWorker(WorkerConfig{
			Addr: co.Addr(), Name: "healthy", Capacity: 2, Patience: 10 * time.Second})
	}()
	rep, err := co.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("healthy worker: %v", werr)
	}
	if got := reportJSON(t, rep); !bytes.Equal(want, got) {
		t.Error("report after a malformed result differs from single-machine run")
	}
}

// A worker built from different code is refused with a reject frame,
// and RunWorker surfaces that as ErrVersionMismatch (the CLI's exit-2
// path). Simulated with a hand-rolled hello carrying a bogus version —
// in-process workers necessarily share the coordinator's CodeVersion.
func TestFabricRefusesVersionMismatch(t *testing.T) {
	cfg := fixedConfig()
	lc, err := experiment.NewLeaseController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co, err := StartCoordinator(CoordinatorConfig{
		Controller: lc, ListenAddr: "127.0.0.1:0", LeaseTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = writeMsg(conn, &msg{Type: msgHello, Hello: &helloMsg{
		Name: "stale", Version: "someone-else@v0.0.0-deadbeef", Capacity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != msgReject {
		t.Fatalf("mismatched worker got %q, want reject", m.Type)
	}

	// Drain the run so the controller's goroutines exit cleanly.
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(WorkerConfig{
			Addr: co.Addr(), Name: "current", Capacity: 2, Patience: 10 * time.Second})
	}()
	if _, err := co.Wait(); err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("current-version worker: %v", werr)
	}
}

// A coordinator restart mid-run: interrupt the first coordinator, then
// resume from its journal on a new address. Workers that were dialing
// the old address give up on patience; a fresh worker finishes the
// resumed run and the report is byte-identical to an uninterrupted
// single-machine run.
func TestFabricCoordinatorRestartResumes(t *testing.T) {
	cfg := slowConfig()
	ref, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, ref)

	ckpt := t.TempDir() + "/fabric.ckpt"
	cfg.Checkpoint = ckpt
	lc, err := experiment.NewLeaseController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intr := make(chan struct{})
	co, err := StartCoordinator(CoordinatorConfig{
		Controller: lc, ListenAddr: "127.0.0.1:0", LeaseTimeout: 3 * time.Second,
		Interrupt: intr})
	if err != nil {
		t.Fatal(err)
	}
	wdone := make(chan error, 1)
	go func() {
		wdone <- RunWorker(WorkerConfig{
			Addr: co.Addr(), Name: "first", Capacity: 2, Patience: time.Second})
	}()
	if !waitProgress(co, 100) {
		t.Fatal("no batches journaled before interrupt window")
	}
	close(intr)
	if _, err := co.Wait(); !errors.Is(err, experiment.ErrInterrupted) {
		t.Fatalf("interrupted coordinator returned %v", err)
	}
	<-wdone // dismissed or timed out; either is fine

	lc2, err := experiment.ResumeLeaseController(ckpt, experiment.ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	co2, err := StartCoordinator(CoordinatorConfig{
		Controller: lc2, ListenAddr: "127.0.0.1:0", LeaseTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		wdone <- RunWorker(WorkerConfig{
			Addr: co2.Addr(), Name: "second", Capacity: 2, Patience: 10 * time.Second})
	}()
	rep, err := co2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-wdone; werr != nil {
		t.Fatalf("post-restart worker: %v", werr)
	}
	if got := reportJSON(t, rep); !bytes.Equal(want, got) {
		t.Error("resumed fabric report differs from uninterrupted single-machine run")
	}
}
