// Command sweepd is the distributed-sweep coordinator (see
// internal/fabric): it owns the experiment — spec, adaptive stopping
// decisions, checkpoint journal — and leases trial batches over TCP to
// workers started with `sweep -worker <addr>`. Workers execute batches
// with positional seeds and stream folded moment state back; the
// coordinator admits results through the same prefix-merge rule the
// single-machine engine uses, so the report JSON and the manifest's
// deterministic section are byte-identical to `sweep` run locally with
// the same flags — at any worker count, with workers crashing or
// joining mid-run, and across coordinator restarts (-resume).
//
// Usage:
//
//	sweepd -listen 127.0.0.1:7600 \
//	       -topo clique:64 -topo path:128 -algos auto \
//	       -ci 0.01 -max-trials 100000 [-checkpoint run.ckpt] \
//	       [-json out.json] [-manifest run.manifest.json] [-status :8080]
//	sweep -worker 127.0.0.1:7600   # on each machine
//
// Without -ci the run is a fixed sweep: every cell runs exactly
// -trials trials (whatever -max-trials says) through the batch-journaled
// engine — the same engine, spec and config `sweep -checkpoint` builds
// from the same flags (internal/cli), so the outputs compare against
// that, not against the fixed-sweep engine's percentile report.
//
// The run starts as soon as the first worker connects and finishes
// when every cell stops; workers silent past -lease-timeout are
// evicted and their batches reissued, and near the end of the run
// outstanding batches are duplicated to idle workers (work stealing) —
// duplicates merge exactly once. A worker built from different code is
// refused at the handshake (exit 2 on its side): byte-identity across
// machines is only claimed at one code version.
//
// -status serves /status (run counters, per-cell progress), /fabric
// (per-worker health, lease ages, fleet telemetry), and /metrics
// (Prometheus text exposition) over HTTP. -progress prints a periodic
// one-line ETA from the lease-admission rate, and -events appends a
// JSON-lines lifecycle log (cells, batch commits, worker joins/leaves,
// lease grants/steals, checkpoint fsyncs). SIGINT/SIGTERM stops the
// run gracefully: admitted batches are journaled, workers are
// dismissed, and with -checkpoint the run continues later with
// `sweepd -resume run.ckpt -listen ...`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/telemetry"
)

func main() {
	m := cli.Register(flag.CommandLine)
	listen := flag.String("listen", "127.0.0.1:0", "TCP address workers dial (resolved address printed to stderr)")
	leaseTimeout := flag.Duration("lease-timeout", 10*time.Second, "evict workers silent this long and reissue their batches")
	jsonPath := flag.String("json", "", "write aggregate JSON to this file")
	manifestPath := flag.String("manifest", "", "write a run manifest to this file; defaults to <json>.manifest.json when -json is set; 'none' disables the default")
	status := flag.String("status", "", "serve live run status (/status, /fabric, /metrics) and pprof over HTTP on this address")
	progress := flag.Bool("progress", false, "print a periodic one-line progress report with ETA to stderr")
	eventsPath := flag.String("events", "", "append one JSON line per lifecycle event (cells, batch commits, worker joins/leaves, lease grants/steals, checkpoint fsyncs) to this file")
	flag.Parse()

	manifest := *manifestPath
	if manifest == "" && *jsonPath != "" {
		manifest = strings.TrimSuffix(*jsonPath, ".json") + ".manifest.json"
	} else if manifest == "none" {
		manifest = ""
	}

	if err := m.Validate([][2]string{
		{"json", *jsonPath}, {"checkpoint", m.Checkpoint}, {"manifest", manifest},
		{"events", *eventsPath},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(2)
	}

	var rec *telemetry.Recorder
	if *status != "" || manifest != "" || *progress || *eventsPath != "" {
		rec = telemetry.New()
	}
	if *eventsPath != "" {
		lg, err := telemetry.CreateEventLog(*eventsPath)
		if err != nil {
			fatal(err)
		}
		rec.SetEventLog(lg)
		// fatal() and the interrupt path also run this (os.Exit skips
		// defers); a write error inside the log surfaces as a non-zero
		// exit.
		eventsClose = func() {
			eventsClose = nil
			if err := lg.Close(); err != nil {
				fatal(fmt.Errorf("events: %w", err))
			}
		}
		defer closeEvents()
	}

	// Build the controller: resumed runs take the whole experiment from
	// the journal, fresh runs from the matrix flags.
	var (
		lc   *experiment.LeaseController
		meta cli.Meta
		spec any
		err  error
	)
	if m.Resume != "" {
		meta = cli.Meta{ResumedFrom: m.Resume}
		lc, err = experiment.ResumeLeaseController(m.Resume, experiment.ResumeConfig{Telemetry: rec})
	} else {
		// The same spec and controller config `sweep` builds from these
		// flags (a fixed run spends -trials per cell in both).
		var cfg experiment.Config
		if cfg, err = m.Build(); err == nil {
			cfg.Telemetry = rec
			spec, meta = cfg.Spec, cli.MetaOf(cfg)
			lc, err = experiment.NewLeaseController(cfg)
		}
	}
	if err != nil {
		fatal(err)
	}

	co, err := fabric.StartCoordinator(fabric.CoordinatorConfig{
		Controller:   lc,
		ListenAddr:   *listen,
		LeaseTimeout: *leaseTimeout,
		Telemetry:    rec,
		Interrupt:    interruptChannel(),
		Log:          log.New(os.Stderr, "sweepd: ", 0),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweepd: coordinating on %s — start workers with: sweep -worker %s\n",
		co.Addr(), co.Addr())

	if *status != "" {
		addr, shutdown, err := telemetry.StartStatusServer(*status, rec, co.MountStatus)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweepd: status endpoint on http://%s/status (workers on /fabric)\n", addr)
		rec.SetStatusAddr(addr)
		defer shutdown()
	}

	// -progress reuses cmd/sweep's reporter: the commit rate comes from
	// admitted leases (LeaseController.Admit feeds the same recorder).
	// MaxTrials per cell is exact for fixed runs and an upper bound for
	// adaptive ones (cells stop early), so the ETA renders as "<=" there.
	var stopProgress func()
	if *progress {
		lcCfg := lc.Config()
		total := uint64(len(lc.Runner().Cells())) * uint64(lcCfg.MaxTrials)
		stopProgress = rec.StartProgress(os.Stderr, time.Second, total, lcCfg.TargetRelCI > 0)
	}

	rep, err := co.Wait()
	if stopProgress != nil {
		stopProgress()
	}
	if errors.Is(err, experiment.ErrInterrupted) {
		ckpt := m.Checkpoint
		if m.Resume != "" {
			ckpt = m.Resume
		}
		if ckpt != "" {
			fmt.Fprintf(os.Stderr, "sweepd: interrupted; admitted batches are journaled — continue with: sweepd -resume %s -listen %s\n", ckpt, *listen)
		} else {
			fmt.Fprintln(os.Stderr, "sweepd: interrupted")
		}
		closeEvents()
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}
	rec.Phase("output")
	fmt.Print(rep.Table())
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if manifest != "" && rec != nil {
		m := rec.BuildManifest("sweepd", spec, meta, 0)
		if err := m.WriteFile(manifest); err != nil {
			fatal(err)
		}
	}
}

// interruptChannel converts the first SIGINT or SIGTERM into a
// graceful coordinator stop; a second signal kills the process the
// default way.
func interruptChannel() <-chan struct{} {
	intr := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		signal.Stop(sig)
		fmt.Fprintln(os.Stderr, "sweepd: interrupt — dismissing workers and flushing the checkpoint (signal again to kill)")
		close(intr)
	}()
	return intr
}

// eventsClose closes the -events log; nil when none is open. fatal and
// the interrupt exit call it because os.Exit skips defers.
var eventsClose func()

func closeEvents() {
	if eventsClose != nil {
		eventsClose()
	}
}

func fatal(err error) {
	closeEvents()
	fmt.Fprintln(os.Stderr, "sweepd:", strings.TrimPrefix(err.Error(), "sweepd: "))
	os.Exit(1)
}
