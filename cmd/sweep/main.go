// Command sweep runs a parallel Monte-Carlo experiment matrix over the
// registered workloads and prints aggregate statistics, optionally
// exporting JSON or CSV. The matrix is topologies x models x algorithms
// x workload-parameter points, each cell run -trials times with
// reproducible per-trial seeds derived from -seed (identical results for
// any -workers value).
//
// Usage:
//
//	sweep -topo path:64,128 -topo gnp:32:p=0.25 \
//	      -models local,nocd -algos auto -trials 1000 \
//	      [-workload broadcast] [-wparam key=value]... \
//	      [-fault kind:rates[:w=window]]... \
//	      [-seed 1] [-source 0] [-workers 0] [-lean] \
//	      [-json out.json] [-csv out.csv] [-raw trials.csv] [-progress] \
//	      [-status :8080] [-manifest run.manifest.json] [-events run.jsonl] \
//	      [-cpuprofile cpu.out] [-memprofile mem.out] [-trace trace.out]
//
// # Fault injection
//
// -fault adds a deterministic fault-injection axis to the matrix (see
// internal/fault): crash:0.001 removes devices permanently, sleep:0.01:w=8
// forces 8-slot idle windows, loss:0.05 erases successful deliveries —
// each rate a per-(device, slot) probability, each listed spec its own
// matrix cell. Fault decisions come from a positional hash stream
// disjoint from every protocol RNG stream, so a rate-0 spec reproduces
// the fault-free report byte for byte and results stay bit-identical
// for any -workers. Faulted cells gain graceful-degradation
// columns (success, informedFrac, energyOverhead, wastedAwake) that
// adaptive runs can target with -ci-measure.
//
// # Reports and observability
//
// The output flags -json, -manifest, -status, -progress and -events
// are shared with cmd/sweepd (internal/cli). -json writes the aggregate
// report. -status addr serves the run live over HTTP (see
// internal/telemetry): /status returns a JSON snapshot — run counters,
// per-cell committed trials and wall-clock, convergence traces of
// adaptive runs — /metrics a Prometheus exposition, and /debug/pprof/
// the standard profiling handlers. The resolved address is printed to
// stderr (useful with ":0"). -progress prints a periodic one-line
// stderr report with an ETA extrapolated from the trial-commit rate.
// -events appends one JSON line per lifecycle event. -manifest writes a
// run manifest (spec, seed, worker count, counters, per-cell trials and
// timings, phase timings); with -json but no -manifest, the manifest is
// derived next to the report as <report>.manifest.json (-manifest none
// disables the default). The recorder's run counters are updated once
// per trial batch, so none of this perturbs measurements: the report
// JSON is byte-identical with and without it.
//
// # Adaptive runs and checkpoint/resume
//
// With -ci (and mandatory -max-trials), the run goes through the
// internal/experiment controller instead of the fixed-trials engine:
// cells run in -batch sized trial batches and each stops independently
// once every -ci-measure's Student-t relative CI half-width (confidence
// -ci-conf) is within the -ci target, reallocating workers to the cells
// that still need trials. -checkpoint journals every completed batch
// (CRC-framed, fsync'd). The first SIGINT or SIGTERM drains the
// in-flight batches and exits 130, naming the resume command; after
// that or a crash, `sweep -resume run.ckpt` continues the run — the
// journal holds the full experiment definition, so -resume conflicts
// with every matrix flag — and produces aggregate JSON byte-identical
// to an uninterrupted run.
// -checkpoint without -ci journals a fixed -trials sweep.
//
//	sweep -topo path:128,256 -topo gnp:64 -models nocd,cd \
//	      -ci 0.01 -ci-measure slots,maxEnergy \
//	      -min-trials 200 -max-trials 200000 \
//	      -checkpoint run.ckpt -json out.json
//	sweep -resume run.ckpt -json out.json   # after a kill
//
// # Distributed sweeps
//
// `sweep -worker host:port` turns the process into a fabric worker
// (see internal/fabric and cmd/sweepd): it dials the coordinator at
// that address, executes the batch leases it is handed, and streams
// folded results back until the coordinator reports the run complete.
// The experiment definition comes entirely from the coordinator, so
// -worker conflicts with every matrix and output flag; only -workers
// (the local capacity) rides along. A worker exits 0 when the run
// completes, 2 if the coordinator refuses it for running a different
// code version, and 1 if the coordinator stays unreachable past the
// redial window. The coordinator side guarantees report bytes
// identical to a single-machine run at any worker count.
//
// -raw writes one CSV row per trial (cell id, trial index, seed,
// slots, max/total energy, events, informed count, completion, error)
// once the sweep's trials finish, in deterministic (cell, trial) order.
//
// -cpuprofile / -memprofile / -trace write pprof profiles and a
// runtime/trace of the sweep itself, so engine performance work can
// profile real Monte-Carlo workloads instead of microbenchmarks: e.g.
//
//	sweep -topo gnp:256 -trials 2000 -cpuprofile cpu.out -trace trace.out
//	go tool pprof cpu.out
//	go tool trace trace.out
//
// Topology syntax: kind:size1,size2,...[:key=value,...] with kinds
// path, cycle, star, clique, grid (cols=...), k2k, hypercube, tree
// (seed=...), gnp (p=..., seed=...), rgg (r=..., seed=...), lollipop
// (tail=...).
//
// Workloads (see internal/workload): broadcast (default), msrc (k-source
// broadcast, -wparam k=2,4), leader (single-hop election, -wparam
// proto=rand,det), tradeoff (Theorem 16 dial, -wparam beta=...). Comma-
// separated -wparam values expand into one matrix cell per grid point.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/sweep"
)

func main() {
	m := cli.Register(flag.CommandLine)
	out := cli.RegisterOutputs(flag.CommandLine)
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	csvPath := flag.String("csv", "", "write aggregate CSV to this file")
	rawPath := flag.String("raw", "", "write per-trial raw CSV (cell, trial, seed, slots, energy, informed, ...) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the sweep) to this file")
	tracePath := flag.String("trace", "", "write a runtime/trace of the sweep to this file (view with go tool trace)")
	worker := flag.String("worker", "", "run as a fabric worker for the coordinator (cmd/sweepd) at this host:port; conflicts with every flag except -workers")
	flag.Parse()

	// Worker mode: the coordinator owns the experiment; everything local
	// is just capacity.
	if *worker != "" {
		runWorker(out, *worker, *workers)
		return
	}

	// Up-front flag validation: a bad combination exits 2 with a one-line
	// reason before any graph is built or file touched.
	err := m.Validate(out.Files(m, [][2]string{{"csv", *csvPath}, {"raw", *rawPath}},
		[][2]string{{"cpuprofile", *cpuProfile}, {"memprofile", *memProfile}, {"trace", *tracePath}}))
	if err == nil && m.Controlled() {
		// The fixed-sweep-only outputs are refused for runs through the
		// experiment controller, by the same test main routes on.
		if *rawPath != "" {
			err = errors.New("-raw is only available for fixed (non-adaptive, non-checkpointed) sweeps")
		} else if *csvPath != "" {
			err = errors.New("adaptive reports export JSON only; -csv is only for fixed sweeps")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	s := out.Start("sweep")

	// Profiling hooks: real sweep workloads are what the engine's perf
	// work optimizes for, so make them profileable directly instead of
	// approximating with microbenchmarks. The session stops and flushes
	// the CPU profile and the trace at every exit, so a failure after a
	// long sweep still leaves them usable.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			s.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			s.Fatal(err)
		}
		s.Defer(func() error { pprof.StopCPUProfile(); return f.Close() })
	}
	if *memProfile != "" {
		// Runs once main returns, after the session's cleanups: only a
		// completed sweep has a post-sweep live set to profile.
		defer func() {
			err := cli.WriteFile(*memProfile, func(w io.Writer) error {
				runtime.GC() // materialize the post-sweep live set
				return pprof.WriteHeapProfile(w)
			})
			if err != nil {
				s.Fatal(err)
			}
		}()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			s.Fatal(err)
		}
		if err := rtrace.Start(f); err != nil {
			s.Fatal(err)
		}
		s.Defer(func() error { rtrace.Stop(); return f.Close() })
	}
	s.Serve("")

	// Resume: the journal holds the whole experiment definition.
	if m.Resume != "" {
		runControlled(s, m, experiment.Config{}, *workers)
		return
	}

	// The same spec and controller config sweepd builds from these flags;
	// an unknown workload name or bad grid exits here, before any graph
	// is built, listing the valid names.
	cfg, err := m.Build()
	if err != nil {
		s.Fatal(err)
	}
	if m.Controlled() {
		runControlled(s, m, cfg, *workers)
		return
	}

	spec := cfg.Spec
	opt := sweep.Options{Workers: *workers, Telemetry: s.Rec}
	if *rawPath != "" {
		// Buffer the raw export so million-trial sweeps don't pay a
		// syscall per row. The session flushes it at every exit, so a
		// failure after the sweep — e.g. a bad -json path — still leaves
		// the completed raw rows on disk.
		f, err := os.Create(*rawPath)
		if err != nil {
			s.Fatal(err)
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		opt.Raw = bw
		s.Defer(func() error {
			if err := bw.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	// Build expanded the spec already; the cell count sizes the ETA's
	// trial total.
	cells, _ := spec.Expand()
	rep := cli.Run(s, uint64(len(cells))*uint64(spec.Trials), false, "",
		func() (*sweep.Report, error) { return sweep.Run(spec, opt) })
	s.Finish(rep, spec, nil, *workers, cli.Export{Path: *csvPath, Write: rep.WriteCSV})
}

// runControlled drives a run through the experiment controller: a fresh
// adaptive or journaled one from cfg, or one resumed from -resume. A
// resumed run's definition lives in its journal, so its manifest echoes
// only the journal path; its deterministic fields (committed counts,
// traces) still rebuild identically to the uninterrupted run's.
func runControlled(s *cli.Session, m *cli.Matrix, cfg experiment.Config, workers int) {
	var (
		run   func() (*experiment.Report, error)
		spec  any
		meta  = cli.Meta{ResumedFrom: m.Resume}
		total uint64 // 0 for a resume: its total lives in the journal
	)
	intr := s.Interrupt("draining in-flight batches")
	if m.Resume != "" {
		rc := experiment.ResumeConfig{Workers: workers, Interrupt: intr, Telemetry: s.Rec}
		run = func() (*experiment.Report, error) { return experiment.Resume(m.Resume, rc) }
	} else {
		cfg.Workers, cfg.Interrupt, cfg.Telemetry = workers, intr, s.Rec
		run = func() (*experiment.Report, error) { return experiment.Run(cfg) }
		cells, _ := cfg.Spec.Expand()
		total, spec, meta = uint64(len(cells))*uint64(cfg.MaxTrials), cfg.Spec, cli.MetaOf(cfg)
	}
	hint := ""
	if j := m.Journal(); j != "" {
		hint = "completed batches are journaled — continue with: sweep -resume " + j
	}
	// MaxTrials per cell is exact for a journaled fixed run and an upper
	// bound for an adaptive one (cells stop early), where the ETA renders
	// as "<=".
	rep := cli.Run(s, total, cfg.TargetRelCI > 0, hint, run)
	s.Finish(rep, spec, meta, workers)
}

// runWorker joins the fabric coordinator at addr as a worker. The
// coordinator defines the experiment, so every flag except -workers is
// a conflict; exits 0 on run completion, 2 on a refused handshake or a
// conflicting flag, 130 on interrupt, 1 on an unreachable coordinator.
func runWorker(out *cli.Outputs, addr string, capacity int) {
	var conflicts []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "worker" && f.Name != "workers" {
			conflicts = append(conflicts, "-"+f.Name)
		}
	})
	if len(conflicts) > 0 {
		fmt.Fprintf(os.Stderr, "sweep: -worker takes the experiment from the coordinator; drop the conflicting flags: %s\n",
			strings.Join(conflicts, " "))
		os.Exit(2)
	}
	s := out.Start("sweep") // no output flag is set: no recorder, no files
	err := fabric.RunWorker(fabric.WorkerConfig{
		Addr: addr, Capacity: capacity, Interrupt: s.Interrupt("draining in-flight batches"),
		Log: log.New(os.Stderr, "sweep: ", 0),
	})
	switch {
	case err == nil:
		fmt.Fprintln(os.Stderr, "sweep: run complete, coordinator dismissed this worker")
	case errors.Is(err, fabric.ErrVersionMismatch):
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	default:
		s.Check(err, "")
	}
}
