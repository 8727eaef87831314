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
// -trials trials through the batch-journaled engine (the same engine
// `sweep -checkpoint` uses, so the outputs compare against that, not
// against the streaming fixed-sweep engine's percentile report).
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

	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

type listFlags []string

func (t *listFlags) String() string { return fmt.Sprint(*t) }
func (t *listFlags) Set(s string) error {
	*t = append(*t, s)
	return nil
}

// adaptiveMeta mirrors cmd/sweep's manifest record field for field:
// the two tools must emit identical deterministic manifest sections
// (minus the tool name) for the same flags, and the fabric smoke
// byte-compares exactly that.
type adaptiveMeta struct {
	BatchSize   int      `json:"batchSize,omitempty"`
	MinTrials   int      `json:"minTrials,omitempty"`
	MaxTrials   int      `json:"maxTrials"`
	TargetRelCI float64  `json:"targetRelCI,omitempty"`
	Confidence  float64  `json:"confidence,omitempty"`
	Measures    []string `json:"measures,omitempty"`
	ResumedFrom string   `json:"resumedFrom,omitempty"`
}

func main() {
	var topos, wparams, faults listFlags
	flag.Var(&topos, "topo", "topology spec kind:sizes[:opts] (repeatable)")
	flag.Var(&faults, "fault", "fault-injection spec kind:rates[:w=window] (repeatable)")
	models := flag.String("models", "nocd", "comma-separated models: nocd,cd,cdstar,local")
	algos := flag.String("algos", "auto", "comma-separated algorithms (core.Algorithm names)")
	wl := flag.String("workload", "broadcast",
		"workload scenario: "+strings.Join(workload.Names(), ", "))
	flag.Var(&wparams, "wparam", "workload parameter key=value (repeatable)")
	trials := flag.Int("trials", 100, "fixed runs (-ci 0): trials per matrix cell")
	seed := flag.Uint64("seed", 1, "master seed for per-trial seed derivation")
	source := flag.Int("source", 0, "broadcast source vertex")
	lean := flag.Bool("lean", false, "experiment-scale constants for heavy algorithms")
	ci := flag.Float64("ci", 0, "adaptive stop: target relative CI half-width per cell (0 = fixed -trials; requires -max-trials)")
	ciMeasure := flag.String("ci-measure", "slots,maxEnergy", "comma-separated measures the -ci rule targets")
	ciConf := flag.Float64("ci-conf", 0.95, "confidence level of the Student-t intervals")
	minTrials := flag.Int("min-trials", 0, "adaptive runs: trials before a cell may stop on CI grounds (0 = 2 batches)")
	maxTrials := flag.Int("max-trials", 0, "adaptive runs: per-cell trial cap (required with -ci)")
	batch := flag.Int("batch", 0, "trials per lease batch (0 = 100)")
	checkpoint := flag.String("checkpoint", "", "journal admitted batches to this file (an existing journal is refused — use -resume)")
	resume := flag.String("resume", "", "continue a checkpointed run from this journal (conflicts with matrix flags)")
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

	if err := validateFlags(*trials, *ci, *maxTrials, *resume, [][2]string{
		{"json", *jsonPath}, {"checkpoint", *checkpoint}, {"manifest", manifest},
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
		meta adaptiveMeta
		spec any
		err  error
	)
	if *resume != "" {
		meta = adaptiveMeta{ResumedFrom: *resume}
		lc, err = experiment.ResumeLeaseController(*resume, experiment.ResumeConfig{Telemetry: rec})
	} else {
		cfg := experiment.Config{
			BatchSize:   *batch,
			MinTrials:   *minTrials,
			MaxTrials:   *maxTrials,
			TargetRelCI: *ci,
			Confidence:  *ciConf,
			Measures:    splitMeasures(*ciMeasure),
			Checkpoint:  *checkpoint,
			Telemetry:   rec,
		}
		if *ci == 0 {
			cfg.MaxTrials = *trials // fixed run through the journaled engine
		}
		cfg.Spec, err = buildSpec(topos, wparams, faults, *models, *algos, *wl,
			*trials, *seed, *source, *lean)
		if err == nil {
			spec = cfg.Spec
			meta = adaptiveMeta{BatchSize: cfg.BatchSize, MinTrials: cfg.MinTrials,
				MaxTrials: cfg.MaxTrials, TargetRelCI: cfg.TargetRelCI,
				Confidence: cfg.Confidence, Measures: cfg.Measures}
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
		ckpt := *checkpoint
		if *resume != "" {
			ckpt = *resume
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

// buildSpec assembles the sweep spec from matrix flags — the same
// parsers and field population as cmd/sweep, so flag syntax, resolved
// cells, and the manifest's spec echo all agree between the two tools
// (Trials is ignored by the controller but part of the echoed spec).
func buildSpec(topos, wparams, faults []string, models, algos, wl string,
	trials int, seed uint64, source int, lean bool) (sweep.Spec, error) {
	if len(topos) == 0 {
		return sweep.Spec{}, errors.New("at least one -topo is required")
	}
	spec := sweep.Spec{Trials: trials, MasterSeed: seed, Source: source, Lean: lean,
		Workload: wl}
	for _, s := range topos {
		ts, err := sweep.ParseTopology(s)
		if err != nil {
			return sweep.Spec{}, err
		}
		spec.Topologies = append(spec.Topologies, ts...)
	}
	var err error
	if spec.Models, err = sweep.ParseModels(models); err != nil {
		return sweep.Spec{}, err
	}
	if spec.Algorithms, err = sweep.ParseAlgorithms(algos); err != nil {
		return sweep.Spec{}, err
	}
	if spec.WorkloadParams, err = sweep.ParseWorkloadParams(wparams); err != nil {
		return sweep.Spec{}, err
	}
	for _, s := range faults {
		fs, err := sweep.ParseFault(s)
		if err != nil {
			return sweep.Spec{}, err
		}
		spec.Faults = append(spec.Faults, fs...)
	}
	if _, err = spec.Expand(); err != nil {
		return sweep.Spec{}, err
	}
	return spec, nil
}

// matrixFlags define the experiment; -resume takes the definition from
// the journal, so combining them is a conflict.
var matrixFlags = map[string]bool{
	"topo": true, "models": true, "algos": true, "workload": true,
	"wparam": true, "fault": true, "trials": true, "seed": true, "source": true,
	"lean": true, "ci": true, "ci-measure": true, "ci-conf": true,
	"min-trials": true, "max-trials": true, "batch": true, "checkpoint": true,
}

func validateFlags(trials int, ci float64, maxTrials int, resume string, outputs [][2]string) error {
	if trials <= 0 {
		return fmt.Errorf("-trials must be positive, got %d", trials)
	}
	seen := map[string]string{}
	for _, o := range outputs {
		name, path := o[0], o[1]
		if path == "" {
			continue
		}
		if prev, dup := seen[path]; dup {
			return fmt.Errorf("-%s and -%s both write to %s", prev, name, path)
		}
		seen[path] = name
	}
	if ci < 0 {
		return fmt.Errorf("-ci must be non-negative, got %v", ci)
	}
	if ci > 0 && maxTrials <= 0 {
		return errors.New("-ci requires -max-trials (the per-cell cap that bounds a never-converging cell)")
	}
	if resume != "" {
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			if matrixFlags[f.Name] {
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return fmt.Errorf("-resume takes the experiment definition from the journal; drop the conflicting flags: %s",
				strings.Join(conflicts, " "))
		}
	}
	return nil
}

func splitMeasures(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
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
