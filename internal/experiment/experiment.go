// Package experiment is the adaptive controller layered above
// internal/sweep: it runs matrix cells in trial batches, maintains
// per-measure Student-t confidence intervals (internal/stats.Moments),
// and stops each cell independently once every targeted measure's
// relative CI half-width falls below the goal — so dense cells that
// converge in hundreds of trials stop early and the worker pool
// reallocates to the long-tailed cells that need tens of thousands.
//
// # Determinism
//
// The committed trial count of every cell is a pure function of the
// spec and the controller parameters, independent of worker count,
// scheduling, interruption, or resume. Three rules make that so:
//
//   - batch boundaries are fixed up front (batch b covers trials
//     [b*BatchSize, min((b+1)*BatchSize, MaxTrials)); seeds are
//     positional via sweep.TrialSeed), so any execution runs the same
//     batches;
//   - the stopping rule is evaluated on prefix merges only: batches
//     merge into a cell's moment state strictly in batch order, and the
//     rule is consulted exactly once per prefix length;
//   - workers may run batches speculatively past an undecided prefix,
//     but results beyond a cell's stop point are discarded, never
//     merged or reported.
//
// Merged moment state is float64 arithmetic in a fixed order, so
// aggregates — and the serialized Report — are bit-identical for any
// worker count, and a resumed run reproduces an uninterrupted run's
// output byte for byte.
//
// # Checkpoint / resume
//
// With Config.Checkpoint set, every completed batch is appended to a
// CRC-framed journal (see journal.go) and merged only once its fsync
// has returned. One writer goroutine group-commits the records queued
// since its last fsync (one Write and one Sync per group) while the
// coordinator keeps issuing leases; a record whose cell stops while it
// waits is journaled but never merged. Resume replays the journal
// through the same prefix-merge rule, re-runs only the batches that
// were in flight or not yet written when the run died (a torn trailing
// record is detected and its batch re-run), and continues. No rng
// state is captured anywhere: positional seeding means a batch's
// identity is just its trial range.
package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config parameterizes one adaptive run.
type Config struct {
	// Spec is the experiment matrix. Spec.Trials is ignored: trial
	// counts are the controller's to decide, bounded by MaxTrials.
	Spec sweep.Spec
	// BatchSize is the scheduling granule (default 100): trials per
	// batch, CI checks once per batch.
	BatchSize int
	// MinTrials gates the stopping rule: no cell stops on CI grounds
	// before this many trials (default 2*BatchSize). Clamped to
	// MaxTrials.
	MinTrials int
	// MaxTrials caps every cell (required).
	MaxTrials int
	// TargetRelCI is the stopping goal: a cell stops once every tracked
	// measure's CI half-width is within this fraction of its mean (e.g.
	// 0.01 = ±1%). Zero disables adaptive stopping — every cell runs
	// exactly MaxTrials, which is how a fixed sweep gains checkpointing.
	TargetRelCI float64
	// Confidence is the CI level (default 0.95).
	Confidence float64
	// Measures names the CI-targeted measures (default slots,
	// maxEnergy). Each must be CI-eligible in every cell
	// (workload.CIMeasures).
	Measures []string
	// Workers is the pool size (default GOMAXPROCS). Results are
	// identical for every value.
	Workers int
	// Checkpoint, if non-empty, journals completed batches to this path,
	// each fsync'd before it merges. An existing file is refused, never
	// truncated: use Resume to continue one, or remove it to start
	// fresh.
	Checkpoint string
	// Interrupt, if non-nil, stops the run gracefully when it becomes
	// receivable: no new batches are issued, in-flight batches are
	// drained and journaled, the journal's queued records are synced,
	// and Run returns ErrInterrupted.
	Interrupt <-chan struct{}
	// Progress, if non-nil, is called from the coordinator after each
	// merged batch.
	Progress func(Progress)
	// Telemetry, if non-nil, receives run counters, per-cell committed
	// progress, and convergence traces (one telemetry.TracePoint per
	// merged batch, carrying each targeted measure's relative CI
	// half-width). Trace and commit updates happen on the coordinator as
	// prefixes merge, so they are bit-identical for any worker count —
	// only the run counters (trials run, cache traffic) and timings are
	// scheduling-dependent. nil disables all instrumentation.
	Telemetry *telemetry.Recorder
}

// Progress is a coarse controller snapshot.
type Progress struct {
	// Cells and StoppedCells count matrix cells total and converged.
	Cells, StoppedCells int
	// CommittedTrials counts trials merged into committed prefixes.
	CommittedTrials int
}

// ErrInterrupted reports a graceful stop through Config.Interrupt. The
// journal holds every admitted batch; Resume continues the run.
var ErrInterrupted = errors.New("experiment: interrupted")

// ErrBadRecord reports a batch record whose shape does not fit its
// cell: off the batch grid, or tracking the wrong number of measures.
// Admit and Submit return it before anything is journaled, with the
// batch no longer in flight, so a fabric coordinator can drop the
// worker that sent it and reissue the batch.
var ErrBadRecord = errors.New("experiment: bad batch record")

// ResumeConfig carries the per-process knobs of a resumed run;
// everything defining the experiment — spec, batch size, trial bounds,
// CI target, measures — comes from the journal header.
type ResumeConfig struct {
	Workers   int
	Interrupt <-chan struct{}
	Progress  func(Progress)
	Telemetry *telemetry.Recorder
}

// normalize applies defaults and validates. It must be applied exactly
// once, before the header is written: resumed runs take the normalized
// values from the journal so the stop rule can never shift mid-run.
func (c *Config) normalize() error {
	if c.MaxTrials <= 0 {
		return fmt.Errorf("experiment: MaxTrials must be positive, got %d", c.MaxTrials)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.BatchSize > c.MaxTrials {
		c.BatchSize = c.MaxTrials
	}
	if c.MinTrials <= 0 {
		c.MinTrials = 2 * c.BatchSize
	}
	if c.MinTrials > c.MaxTrials {
		c.MinTrials = c.MaxTrials
	}
	if c.TargetRelCI < 0 {
		return fmt.Errorf("experiment: negative CI target %v", c.TargetRelCI)
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return fmt.Errorf("experiment: confidence %v outside (0, 1)", c.Confidence)
	}
	if len(c.Measures) == 0 {
		c.Measures = []string{"slots", "maxEnergy"}
	}
	return nil
}

// cellState is the coordinator's per-cell bookkeeping.
type cellState struct {
	maxBatches int
	done       map[int]*BatchRecord // completed, not yet part of the prefix
	inflight   map[int]bool
	journaling map[int]bool // submitted, waiting for their journal group
	doneCount  int          // batches completed (incl. merged), for fair issuing

	// committed prefix.
	prefix    int // consecutive batches merged
	trials    int
	errors    int
	completed int
	moments   []stats.Moments

	stopped bool
	reason  string
}

// eligibleNames lists the CI-eligible measures, for error messages.
func eligibleNames(ms []workload.MeasureInfo) string {
	var names []string
	for _, m := range ms {
		if m.CI {
			names = append(names, m.Name)
		}
	}
	return strings.Join(names, ", ")
}

// TrackedMeasures lists one cell's tracked measure columns — the four
// core columns, then the cell's CI-eligible extras, in column order.
// It is the column contract FoldBatch and the controller share: a
// fabric worker computes it from its own copy of the spec's Runner and
// folds batches into records the coordinator's controller admits
// unchanged, which is what keeps distributed aggregates bit-identical
// to local ones.
func TrackedMeasures(r *sweep.Runner, cell int) []workload.MeasureInfo {
	c := r.Cells()[cell]
	return workload.CIMeasuresWith(r.Workload(), c.Point, c.Fault)
}

// FoldBatch folds one batch's trials — in trial order — into a batch
// record over the tracked columns. Errored trials contribute to no
// moment; conditional extras missing from a successful trial are
// skipped. Pure float64 arithmetic in trial order, so the record is
// bit-identical wherever the batch ran.
func FoldBatch(tracked []workload.MeasureInfo, cell, lo, hi int, trials []sweep.Trial) *BatchRecord {
	rec := &BatchRecord{Cell: cell, Lo: lo, Hi: hi,
		Moments: make([]stats.Moments, len(tracked))}
	for i := range trials {
		tr := &trials[i]
		// Fault counters accumulate over every trial, errored or not: the
		// engine injected those faults whether or not the workload then
		// failed, and the counts stay positional (scheduling-independent).
		rec.Crashes += tr.FaultCrashes
		rec.Sleeps += tr.FaultSleeps
		rec.Erasures += tr.FaultErasures
		if tr.Err != "" {
			rec.Errors++
			continue
		}
		if tr.Completed {
			rec.Completed++
		}
		rec.Moments[0].Add(float64(tr.Slots))
		rec.Moments[1].Add(float64(tr.MaxEnergy))
		rec.Moments[2].Add(float64(tr.TotalEnergy))
		rec.Moments[3].Add(float64(tr.Events))
		for j := 4; j < len(tracked); j++ {
			name := tracked[j].Name
			for _, s := range tr.Extra {
				if s.Name == name {
					rec.Moments[j].Add(s.X)
					break
				}
			}
		}
	}
	return rec
}

// Run executes the adaptive experiment on a local worker pool and
// returns its report. With Config.Checkpoint set, a fresh journal is
// written alongside; interruption through Config.Interrupt flushes it
// and returns ErrInterrupted.
func Run(cfg Config) (*Report, error) {
	lc, err := NewLeaseController(cfg)
	if err != nil {
		return nil, err
	}
	return runLocal(lc)
}

// Resume continues a checkpointed run on a local worker pool: only
// unjournaled batches are re-run, and the resulting report is
// byte-identical to an uninterrupted run's.
func Resume(path string, rc ResumeConfig) (*Report, error) {
	lc, err := ResumeLeaseController(path, rc)
	if err != nil {
		return nil, err
	}
	return runLocal(lc)
}

// runLocal drives a lease controller with Config.Workers in-process
// workers. The calling goroutine is the coordinator — the only one
// touching lc, through the same Next/Submit/Commit/Done/Report calls a
// fabric coordinator makes — and each worker executes leases with
// Runner.RunBatch and folds them with FoldBatch, exactly as a remote
// fabric worker does. Leased batches and journaling records are both
// outstanding work: the loop ends only when neither is left.
func runLocal(lc *LeaseController) (rep *Report, err error) {
	defer func() {
		if cerr := lc.Close(); cerr != nil && err == nil {
			rep, err = nil, cerr
		}
	}()
	cfg, runner := lc.Config(), lc.Runner()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg.Telemetry.Phase("trials")
	leases := make(chan Lease)
	// One slot per worker: each holds at most one unadmitted result.
	results := make(chan *BatchRecord, workers)
	defer close(leases)
	for range workers {
		go func() {
			sims := &radio.SimCache{}
			for l := range leases {
				buf := make([]sweep.Trial, l.Hi-l.Lo)
				runner.RunBatch(l.Cell, l.Lo, l.Hi, sims, cfg.Telemetry, buf)
				results <- FoldBatch(lc.tracked[l.Cell], l.Cell, l.Lo, l.Hi, buf)
			}
		}()
	}

	outstanding := 0 // leases at workers
	interrupted := false
	var firstErr error
	intr := cfg.Interrupt
	pending, havePending := lc.Next()
	for {
		draining := interrupted || firstErr != nil
		busy := outstanding + lc.Journaling()
		if (lc.Done() || draining) && busy == 0 {
			break
		}
		var out chan Lease
		if havePending && !draining {
			out = leases
		}
		if out == nil && busy == 0 {
			// Nothing issuable and nothing running: cells must be blocked
			// on stop decisions that will never change. This state is
			// unreachable while a cell is unstopped — guard anyway.
			break
		}
		select {
		case out <- pending:
			outstanding++
			pending, havePending = lc.Next()
		case rec := <-results:
			outstanding--
			if _, err := lc.Submit(rec); err != nil && firstErr == nil {
				firstErr = err
			}
			if !havePending {
				pending, havePending = lc.Next()
			}
		case g := <-lc.Synced():
			if err := lc.Commit(g); err != nil && firstErr == nil {
				firstErr = err
			}
		case <-intr:
			// A closed Interrupt channel stays receivable; nil it so the
			// drain loop doesn't spin on it.
			interrupted, intr = true, nil
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if interrupted {
		return nil, ErrInterrupted
	}
	return lc.Report(), nil
}

// Report assembles the committed state — call after Done. Everything
// here derives from prefix merges in batch order, so the serialization
// is bit-identical for any worker count, fabric size, interruption
// pattern, or resume.
func (lc *LeaseController) Report() *Report {
	rep := &Report{
		MasterSeed:  lc.cfg.Spec.MasterSeed,
		BatchSize:   lc.cfg.BatchSize,
		MinTrials:   lc.cfg.MinTrials,
		MaxTrials:   lc.cfg.MaxTrials,
		TargetRelCI: lc.cfg.TargetRelCI,
		Confidence:  lc.cfg.Confidence,
		CIMeasures:  lc.cfg.Measures,
	}
	if name := lc.runner.Workload().Name(); name != "broadcast" {
		rep.Workload = name
	}
	cells := lc.runner.Cells()
	for i, cs := range lc.cells {
		g := lc.runner.Graph(i)
		cr := CellResult{
			Graph:     g.Name(),
			N:         g.N(),
			Model:     cells[i].Model.String(),
			Algorithm: cells[i].Algorithm.String(),
			Params:    cells[i].Point.Label,
			Fault:     cells[i].Fault.Label(),
			Trials:    cs.trials,
			Batches:   cs.prefix,
			Completed: cs.completed,
			Errors:    cs.errors,
			Stop:      cs.reason,
		}
		for j, m := range lc.tracked[i] {
			mm := cs.moments[j]
			rel := mm.RelCIHalfWidth(lc.cfg.Confidence)
			if rel != rel || rel > 1e300 { // NaN-free JSON: +Inf -> -1 sentinel
				rel = -1
			}
			cr.Measures = append(cr.Measures, MeasureStat{
				Name:   m.Name,
				Count:  mm.N,
				Mean:   mm.Mean,
				StdDev: mm.StdDev(),
				Min:    mm.Min,
				Max:    mm.Max,
				CI:     mm.CIHalfWidth(lc.cfg.Confidence),
				RelCI:  rel,
			})
		}
		rep.TotalTrials += cs.trials
		rep.Cells = append(rep.Cells, cr)
	}
	return rep
}
