package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/sweep"
)

// workload is one fixed input of the benchmark: a sweep spec run through
// the real CLIs. The graphs are fixed here; only the master seed comes
// from -seed. Every CLI run uses cliWorkers compute threads in total, one
// process tree at a time (a closed loop of one client).
type workload struct {
	name, why string
	// topos, models, algos and lean are the CLI matrix flags.
	topos         []string
	models, algos string
	lean          bool
	// trials is a fixed sweep's trials per cell. Zero marks an adaptive
	// run, which stops each cell once its relative CI half-width reaches
	// ci and journals every batch to a checkpoint.
	trials int
	ci     float64
	// fabric runs the spec through sweepd and two `sweep -worker`
	// processes instead of one sweep process.
	fabric bool
	// plansDiameter is true for algorithms whose per-trial plan calls
	// graph.Diameter (dtime and baseline-decay; see core.singlePlan).
	plansDiameter bool
	// The traced pass runs a fixed workload in its journaled form with
	// traceTrials trials per cell in batches of traceBatch, and measures
	// sweep scaling on scaleTrials trials per cell.
	traceTrials, traceBatch, scaleTrials int
}

// cliWorkers is the compute threads of every CLI run: -workers 2 for
// sweep, two single-threaded workers for sweepd. It equals nproc on the
// box the baseline was recorded on.
const cliWorkers = 2

// The adaptive workloads' controller flags.
const (
	adaptiveBatch     = 20
	adaptiveMinTrials = 40
	adaptiveMaxTrials = 200000
	adaptiveMeasure   = "maxEnergy"
)

var adaptiveTopos = []string{"clique:8,12", "path:16,24"}

// workloads lists the benchmark's inputs; bench/README.md gives the
// reasons for each choice.
var workloads = []workload{
	{
		name:   "star-dtime",
		why:    "Theorem 16 on star-1024: graph.Diameter is half of each trial, so plan and diameter work shows here",
		topos:  []string{"star:1024"},
		models: "cd", algos: "dtime", lean: true, trials: 160,
		plansDiameter: true,
		traceTrials:   32, traceBatch: 4, scaleTrials: 32,
	},
	{
		name:   "gnp-iterclust",
		why:    "the default No-CD algorithm on gnp-64: engine events and continuation closures dominate, no Diameter call",
		topos:  []string{"gnp:64:seed=3"},
		models: "nocd", algos: "iterclust", trials: 16,
		traceTrials: 4, traceBatch: 1, scaleTrials: 4,
	},
	{
		name:   "adaptive-ckpt",
		why:    "cheap trials to a CI target with an fsync'd journal append per batch: the controller and journal dominate",
		topos:  adaptiveTopos,
		models: "nocd", algos: "baseline-decay", ci: 0.001,
		plansDiameter: true, scaleTrials: 1000,
	},
	{
		name:   "fabric-2w",
		why:    "adaptive-ckpt through sweepd and two workers over localhost TCP: the gap to adaptive-ckpt is the fabric",
		topos:  adaptiveTopos,
		models: "nocd", algos: "baseline-decay", ci: 0.001, fabric: true,
		plansDiameter: true, scaleTrials: 1000,
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// pinnedDigests holds each workload's report sha256 at seed 1. The two
// adaptive workloads share one: the fabric must reproduce the local run
// byte for byte. Seed 2 is held out: later changes must not be tuned on
// it. At every seed, each CLI report must also match the in-process
// reference.
var pinnedDigests = map[string]string{
	"star-dtime":    "2c95e61dded728d3a464790102139fb415704cf8a4486cc8170c1101c7014a6b",
	"gnp-iterclust": "ee092455e562ca3f39f9bec7813db82883dde0fc1388a3040fb7ca911fbeaa6c",
	"adaptive-ckpt": "b95e72897820fd8ede28dbed0a6f39af359db9e01719a616ae12534894e2c867",
	"fabric-2w":     "b95e72897820fd8ede28dbed0a6f39af359db9e01719a616ae12534894e2c867",
}

const pinnedSeed = 1

// pin returns the pinned digest of the workload's report at seed, or "".
func (w workload) pin(seed uint64) string {
	if seed != pinnedSeed {
		return ""
	}
	return pinnedDigests[w.name]
}

// matrixArgs are the CLI flags that define the experiment matrix.
func (w workload) matrixArgs(seed uint64) []string {
	var args []string
	for _, t := range w.topos {
		args = append(args, "-topo", t)
	}
	args = append(args, "-models", w.models, "-algos", w.algos, "-seed", strconv.FormatUint(seed, 10))
	if w.lean {
		args = append(args, "-lean")
	}
	return args
}

// journaledArgs are the flags of the workload's journaled-controller
// form, shared by sweep and sweepd: the adaptive run itself, or a fixed
// workload as a journaled fixed sweep of traceTrials per cell.
func (w workload) journaledArgs(seed uint64) []string {
	args := w.matrixArgs(seed)
	if w.trials > 0 {
		return append(args, "-trials", strconv.Itoa(w.traceTrials), "-batch", strconv.Itoa(w.traceBatch))
	}
	return append(args, "-ci", strconv.FormatFloat(w.ci, 'g', -1, 64), "-ci-measure", adaptiveMeasure,
		"-min-trials", strconv.Itoa(adaptiveMinTrials), "-max-trials", strconv.Itoa(adaptiveMaxTrials),
		"-batch", strconv.Itoa(adaptiveBatch))
}

// spec builds the sweep.Spec the CLIs build from the same flags.
func (w workload) spec(seed uint64) (sweep.Spec, error) {
	trials := w.trials
	if trials == 0 {
		trials = 100 // the CLI's -trials default, echoed in the journal header
	}
	spec := sweep.Spec{Trials: trials, MasterSeed: seed, Lean: w.lean, Workload: "broadcast"}
	for _, t := range w.topos {
		ts, err := sweep.ParseTopology(t)
		if err != nil {
			return sweep.Spec{}, err
		}
		spec.Topologies = append(spec.Topologies, ts...)
	}
	var err error
	if spec.Models, err = sweep.ParseModels(w.models); err != nil {
		return sweep.Spec{}, err
	}
	if spec.Algorithms, err = sweep.ParseAlgorithms(w.algos); err != nil {
		return sweep.Spec{}, err
	}
	return spec, nil
}

// journaledConfig is journaledArgs as an experiment.Config.
func (w workload) journaledConfig(seed uint64) (experiment.Config, error) {
	spec, err := w.spec(seed)
	if err != nil {
		return experiment.Config{}, err
	}
	if w.trials > 0 {
		spec.Trials = w.traceTrials
		return experiment.Config{Spec: spec, BatchSize: w.traceBatch, MaxTrials: w.traceTrials,
			Measures: []string{"slots", "maxEnergy"}}, nil
	}
	return experiment.Config{Spec: spec, BatchSize: adaptiveBatch, MinTrials: adaptiveMinTrials,
		MaxTrials: adaptiveMaxTrials, TargetRelCI: w.ci, Measures: []string{adaptiveMeasure}}, nil
}

// bins are the CLI binaries under test.
type bins struct{ sweep, sweepd string }

// buildCLIs builds cmd/sweep and cmd/sweepd of the module at root into dir.
func buildCLIs(root, dir string) (bins, error) {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/sweep", "./cmd/sweepd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return bins{}, fmt.Errorf("build CLIs: %v\n%s", err, out)
	}
	return bins{sweep: filepath.Join(dir, "sweep"), sweepd: filepath.Join(dir, "sweepd")}, nil
}

// cliJob is one execution of a workload spec through the CLIs. Outputs
// go to dir, which must be empty: a checkpoint journal refuses to
// overwrite an existing one.
type cliJob struct {
	fabric bool
	args   []string
	dir    string
	// journal adds -checkpoint; telemetry adds -manifest, -events and
	// -status; profile adds -cpuprofile (sweep only).
	journal, telemetry, profile bool
}

// cliRun is what one CLI execution produced.
type cliRun struct {
	wall, cpu time.Duration
	report    []byte
	digest    string
	sum       reportSum
}

// cliTimeout bounds one CLI execution; every workload finishes in a few
// seconds.
const cliTimeout = 120 * time.Second

func (j cliJob) path(name string) string { return filepath.Join(j.dir, name) }

// flags completes the shared arguments with the job's output flags.
func (j cliJob) flags(tool string) []string {
	args := append(append([]string(nil), j.args...), "-json", j.path("report.json"))
	if j.journal {
		args = append(args, "-checkpoint", j.path("run.ckpt"))
	}
	if j.telemetry {
		args = append(args, "-manifest", j.path(tool+".manifest.json"), "-events", j.path(tool+".events.jsonl"),
			"-status", "127.0.0.1:0")
	} else {
		args = append(args, "-manifest", "none")
	}
	if j.profile && tool == "sweep" {
		args = append(args, "-cpuprofile", j.path("cpu.pprof"))
	}
	return args
}

// run executes the job and reads back its report. wall runs from the
// start of the first process to the exit of the last; cpu sums user and
// system time over every process.
func (j cliJob) run(b bins) (cliRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	var r cliRun
	var err error
	if j.fabric {
		r.wall, r.cpu, err = j.runFabric(ctx, b)
	} else {
		args := append(j.flags("sweep"), "-workers", strconv.Itoa(cliWorkers))
		cmd := exec.CommandContext(ctx, b.sweep, args...)
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.Discard, &stderr
		start := time.Now()
		err = cmd.Run()
		r.wall = time.Since(start)
		r.cpu = cpuOf(cmd)
		if err != nil {
			err = fmt.Errorf("sweep: %v: %s", err, lastLine(stderr.String()))
		}
	}
	if err != nil {
		return r, err
	}
	if r.report, err = os.ReadFile(j.path("report.json")); err != nil {
		return r, err
	}
	r.digest = digest(r.report)
	r.sum, err = summarize(r.report)
	return r, err
}

// runFabric starts sweepd on an ephemeral localhost port, reads the
// resolved address from its stderr, starts cliWorkers single-threaded
// workers, and waits for all of them. Any failure kills the rest.
func (j cliJob) runFabric(ctx context.Context, b bins) (wall, cpu time.Duration, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sd := exec.CommandContext(ctx, b.sweepd, append(j.flags("sweepd"), "-listen", "127.0.0.1:0")...)
	sd.Stdout = io.Discard
	pipe, err := sd.StderrPipe()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := sd.Start(); err != nil {
		return 0, 0, err
	}
	addrc := make(chan string, 1)
	var sdLog strings.Builder
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sent := false
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			sdLog.WriteString(line + "\n")
			rest, ok := strings.CutPrefix(line, "sweepd: coordinating on ")
			if f := strings.Fields(rest); ok && !sent && len(f) > 0 {
				addrc <- f[0]
				sent = true
			}
		}
	}()
	var firstErr error
	var ws []*exec.Cmd
	var wlogs []*bytes.Buffer
	select {
	case addr := <-addrc:
		for i := 0; i < cliWorkers; i++ {
			w := exec.CommandContext(ctx, b.sweep, "-worker", addr, "-workers", "1")
			var buf bytes.Buffer
			w.Stdout, w.Stderr = io.Discard, &buf
			if err := w.Start(); err != nil {
				firstErr = err
				cancel()
				break
			}
			ws, wlogs = append(ws, w), append(wlogs, &buf)
		}
	case <-logDone:
		firstErr = errors.New("sweepd exited before listening")
	case <-ctx.Done():
		firstErr = ctx.Err()
	}
	for i, w := range ws {
		if err := w.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("worker %d: %v: %s", i, err, lastLine(wlogs[i].String()))
			cancel()
		}
	}
	<-logDone
	if err := sd.Wait(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("sweepd: %v: %s", err, lastLine(sdLog.String()))
	}
	wall = time.Since(start)
	cpu = cpuOf(sd)
	for _, w := range ws {
		cpu += cpuOf(w)
	}
	return wall, cpu, firstErr
}

func cpuOf(cmd *exec.Cmd) time.Duration {
	if cmd.ProcessState == nil {
		return 0
	}
	return cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// reportSum totals a report's cells. Fixed (sweep.Report) and adaptive
// (experiment.Report) reports share these per-cell fields.
type reportSum struct {
	trials, completed, errors int
}

func summarize(report []byte) (reportSum, error) {
	var r struct {
		Cells []struct {
			Trials, Completed, Errors int
		} `json:"cells"`
	}
	if err := json.Unmarshal(report, &r); err != nil {
		return reportSum{}, fmt.Errorf("decode report: %w", err)
	}
	var s reportSum
	for _, c := range r.Cells {
		s.trials += c.Trials
		s.completed += c.Completed
		s.errors += c.Errors
	}
	return s, nil
}
