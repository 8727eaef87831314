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
// The matrix flags and the output flags -json, -manifest, -status,
// -progress and -events are sweep's (internal/cli), with one run
// session behind them. Here -status also serves /fabric (per-worker
// health, lease ages, fleet telemetry), -progress extrapolates from the
// lease-admission rate, and -events adds worker joins/leaves and lease
// grants/steals. A worker whose result does not fit its cell is
// evicted and its batch reissued. SIGINT/SIGTERM stops the run
// gracefully: admitted batches are journaled, workers are dismissed,
// and with -checkpoint the process exits 130 naming the command that
// continues the run, `sweepd -resume run.ckpt -listen ...`.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/fabric"
)

func main() {
	m := cli.Register(flag.CommandLine)
	out := cli.RegisterOutputs(flag.CommandLine)
	listen := flag.String("listen", "127.0.0.1:0", "TCP address workers dial (resolved address printed to stderr)")
	leaseTimeout := flag.Duration("lease-timeout", 10*time.Second, "evict workers silent this long and reissue their batches")
	flag.Parse()

	if err := m.Validate(out.Files(m, nil, nil)); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(2)
	}
	s := out.Start("sweepd")

	// Build the controller: resumed runs take the whole experiment from
	// the journal, fresh runs from the matrix flags.
	var (
		lc   *experiment.LeaseController
		meta = cli.Meta{ResumedFrom: m.Resume}
		spec any
		err  error
	)
	if m.Resume != "" {
		lc, err = experiment.ResumeLeaseController(m.Resume, experiment.ResumeConfig{Telemetry: s.Rec})
	} else {
		// The same spec and controller config `sweep` builds from these
		// flags (a fixed run spends -trials per cell in both).
		var cfg experiment.Config
		if cfg, err = m.Build(); err == nil {
			cfg.Telemetry = s.Rec
			spec, meta = cfg.Spec, cli.MetaOf(cfg)
			lc, err = experiment.NewLeaseController(cfg)
		}
	}
	if err != nil {
		s.Fatal(err)
	}

	co, err := fabric.StartCoordinator(fabric.CoordinatorConfig{
		Controller:   lc,
		ListenAddr:   *listen,
		LeaseTimeout: *leaseTimeout,
		Telemetry:    s.Rec,
		Interrupt:    s.Interrupt("dismissing workers"),
		Log:          log.New(os.Stderr, "sweepd: ", 0),
	})
	if err != nil {
		s.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweepd: coordinating on %s — start workers with: sweep -worker %s\n",
		co.Addr(), co.Addr())
	s.Serve(" (workers on /fabric)", co.MountStatus)

	hint := ""
	if j := m.Journal(); j != "" {
		hint = fmt.Sprintf("admitted batches are journaled — continue with: sweepd -resume %s -listen %s", j, *listen)
	}
	// The progress commit rate comes from admitted leases
	// (LeaseController.Admit feeds the recorder). MaxTrials per cell is
	// exact for fixed runs and an upper bound for adaptive ones (cells
	// stop early), so the ETA renders as "<=" there.
	lcCfg := lc.Config()
	rep := cli.Run(s, uint64(len(lc.Runner().Cells()))*uint64(lcCfg.MaxTrials), lcCfg.TargetRelCI > 0, hint, co.Wait)
	s.Finish(rep, spec, meta, 0)
}
