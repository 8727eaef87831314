// Package cli is the command layer cmd/sweep and cmd/sweepd share.
// Sharing it is what keeps a `sweepd` run byte-identical to `sweep` run
// with the same flags.
//
// The flags: Register defines the experiment-matrix and controller
// flags, Matrix.Validate checks them before any graph is built or file
// touched, and Build turns them into a sweep spec and an
// experiment.Config. RegisterOutputs defines the output flags -json,
// -manifest (by default <json>.manifest.json; "none" turns it off),
// -status, -progress and -events. Outputs.Files lists every file a run
// writes, so Validate refuses two flags that name one file.
//
// The run session: Outputs.Start opens one run, with the telemetry
// recorder (only when an output flag asks for it) and the event log.
// Serve starts the status endpoint, with sweepd's /fabric mounted on
// it; Interrupt turns the first SIGINT or SIGTERM into the controller's
// graceful stop; Run runs the experiment under the -progress reporter.
// The session owns every exit. Finish prints the table and writes
// -json, a tool's other exports and the manifest; an interrupt exits
// 130 with the tool's resume hint; Fatal exits 1. Each exit first runs
// the cleanups added with Defer, once each and last added first, so
// profiles, traces, the raw export and the event log are flushed
// however the process ends.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"repro/internal/experiment"
	"repro/internal/sweep"
	"repro/internal/workload"
)

type listFlag []string

func (l *listFlag) String() string { return fmt.Sprint(*l) }
func (l *listFlag) Set(s string) error {
	*l = append(*l, s)
	return nil
}

// Matrix holds the parsed matrix and controller flags.
type Matrix struct {
	fs                          *flag.FlagSet
	topos, wparams, faults      listFlag
	models, algos, workload     string
	trials, source              int
	seed                        uint64
	lean                        bool
	ciMeasure                   string
	ciConf                      float64
	minTrials, maxTrials, batch int
	// CI is the -ci target (0 = fixed run).
	CI float64
	// Checkpoint and Resume are the -checkpoint and -resume journals.
	Checkpoint, Resume string
}

// matrixFlags define the experiment; -resume takes the definition from
// the journal, so combining them is a conflict.
var matrixFlags = map[string]bool{
	"topo": true, "models": true, "algos": true, "workload": true,
	"wparam": true, "fault": true, "trials": true, "seed": true, "source": true,
	"lean": true, "ci": true, "ci-measure": true, "ci-conf": true,
	"min-trials": true, "max-trials": true, "batch": true, "checkpoint": true,
}

// Register defines the matrix and controller flags on fs.
func Register(fs *flag.FlagSet) *Matrix {
	m := &Matrix{fs: fs}
	fs.Var(&m.topos, "topo", "topology spec kind:sizes[:opts] (repeatable)")
	fs.Var(&m.faults, "fault", "fault-injection spec kind:rates[:w=window] with kinds crash, sleep, loss; comma-separated rates expand into a grid (repeatable)")
	fs.StringVar(&m.models, "models", "nocd", "comma-separated models: nocd,cd,cdstar,local")
	fs.StringVar(&m.algos, "algos", "auto", "comma-separated algorithms (core.Algorithm names)")
	fs.StringVar(&m.workload, "workload", "broadcast", "workload scenario: "+strings.Join(workload.Names(), ", "))
	fs.Var(&m.wparams, "wparam", "workload parameter key=value; comma-separated values expand into a grid (repeatable)")
	fs.IntVar(&m.trials, "trials", 100, "trials per matrix cell (fixed runs, -ci 0)")
	fs.Uint64Var(&m.seed, "seed", 1, "master seed for per-trial seed derivation")
	fs.IntVar(&m.source, "source", 0, "broadcast source vertex")
	fs.BoolVar(&m.lean, "lean", false, "experiment-scale constants for heavy algorithms")
	fs.Float64Var(&m.CI, "ci", 0, "adaptive stop: target relative CI half-width per cell (0 = fixed -trials; requires -max-trials)")
	fs.StringVar(&m.ciMeasure, "ci-measure", "slots,maxEnergy", "comma-separated measures the -ci rule targets")
	fs.Float64Var(&m.ciConf, "ci-conf", 0.95, "confidence level of the Student-t intervals")
	fs.IntVar(&m.minTrials, "min-trials", 0, "adaptive runs: trials before a cell may stop on CI grounds (0 = 2 batches)")
	fs.IntVar(&m.maxTrials, "max-trials", 0, "adaptive runs: per-cell trial cap (required with -ci)")
	fs.IntVar(&m.batch, "batch", 0, "trials per scheduling batch (0 = 100)")
	fs.StringVar(&m.Checkpoint, "checkpoint", "", "journal completed batches to this file (an existing journal is refused, not overwritten — use -resume)")
	fs.StringVar(&m.Resume, "resume", "", "continue a checkpointed run from this journal (conflicts with matrix flags)")
	return m
}

// Controlled reports whether the run goes through the experiment
// controller: adaptive (-ci), journaled (-checkpoint), or resumed.
func (m *Matrix) Controlled() bool {
	return m.CI > 0 || m.Checkpoint != "" || m.Resume != ""
}

// Journal returns the run's checkpoint journal: -resume's when set,
// else -checkpoint's ("" when the run journals nothing).
func (m *Matrix) Journal() string {
	if m.Resume != "" {
		return m.Resume
	}
	return m.Checkpoint
}

// Validate rejects invalid flag combinations up front, before any
// graph is built or file touched. outputs lists every file-writing flag
// with its (possibly derived) path, so collisions are caught before one
// output truncates another.
func (m *Matrix) Validate(outputs [][2]string) error {
	if m.trials <= 0 {
		return fmt.Errorf("-trials must be positive, got %d", m.trials)
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
	if m.CI < 0 {
		return fmt.Errorf("-ci must be non-negative, got %v", m.CI)
	}
	if m.CI > 0 && m.maxTrials <= 0 {
		return errors.New("-ci requires -max-trials (the per-cell cap that bounds a never-converging cell)")
	}
	if m.Resume == "" {
		if len(m.topos) == 0 {
			return errors.New("at least one -topo is required")
		}
		return nil
	}
	var conflicts []string
	m.fs.Visit(func(f *flag.Flag) {
		if matrixFlags[f.Name] {
			conflicts = append(conflicts, "-"+f.Name)
		}
	})
	if len(conflicts) > 0 {
		return fmt.Errorf("-resume takes the experiment definition from the journal; drop the conflicting flags: %s",
			strings.Join(conflicts, " "))
	}
	return nil
}

// Build assembles the sweep spec and the controller configuration of a
// fresh run; the spec's workload and parameter grid are resolved so an
// unknown name or bad grid fails before any graph is built. Without -ci
// the run is fixed: MaxTrials is -trials whatever -max-trials says, so
// a journaled fixed run spends -trials per cell in both tools. Spec
// echoes -trials too (a fixed sweep's count; the controller ignores it).
func (m *Matrix) Build() (experiment.Config, error) {
	spec := sweep.Spec{Trials: m.trials, MasterSeed: m.seed, Source: m.source, Lean: m.lean,
		Workload: m.workload}
	for _, s := range m.topos {
		ts, err := sweep.ParseTopology(s)
		if err != nil {
			return experiment.Config{}, err
		}
		spec.Topologies = append(spec.Topologies, ts...)
	}
	var err error
	if spec.Models, err = sweep.ParseModels(m.models); err != nil {
		return experiment.Config{}, err
	}
	if spec.Algorithms, err = sweep.ParseAlgorithms(m.algos); err != nil {
		return experiment.Config{}, err
	}
	if spec.WorkloadParams, err = sweep.ParseWorkloadParams(m.wparams); err != nil {
		return experiment.Config{}, err
	}
	for _, s := range m.faults {
		fs, err := sweep.ParseFault(s)
		if err != nil {
			return experiment.Config{}, err
		}
		spec.Faults = append(spec.Faults, fs...)
	}
	if _, err = spec.Expand(); err != nil {
		return experiment.Config{}, err
	}
	cfg := experiment.Config{
		Spec:        spec,
		BatchSize:   m.batch,
		MinTrials:   m.minTrials,
		MaxTrials:   m.maxTrials,
		TargetRelCI: m.CI,
		Confidence:  m.ciConf,
		Checkpoint:  m.Checkpoint,
	}
	if m.CI == 0 {
		cfg.MaxTrials = m.trials
	}
	for _, tok := range strings.Split(m.ciMeasure, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			cfg.Measures = append(cfg.Measures, tok)
		}
	}
	return cfg, nil
}

// Meta is the manifest's record of the controller parameters, as
// invoked (pre-normalization: zeros mean defaults). Both tools write
// it, so their manifests' deterministic sections agree field for field.
type Meta struct {
	BatchSize   int      `json:"batchSize,omitempty"`
	MinTrials   int      `json:"minTrials,omitempty"`
	MaxTrials   int      `json:"maxTrials"`
	TargetRelCI float64  `json:"targetRelCI,omitempty"`
	Confidence  float64  `json:"confidence,omitempty"`
	Measures    []string `json:"measures,omitempty"`
	ResumedFrom string   `json:"resumedFrom,omitempty"`
}

// MetaOf records a fresh run's controller parameters.
func MetaOf(cfg experiment.Config) Meta {
	return Meta{BatchSize: cfg.BatchSize, MinTrials: cfg.MinTrials, MaxTrials: cfg.MaxTrials,
		TargetRelCI: cfg.TargetRelCI, Confidence: cfg.Confidence, Measures: cfg.Measures}
}
