package experiment

// The lease controller is the adaptive controller's batch-granular
// API: a coordinator asks for (cell, lo, hi) leases one at a time, hands
// them to workers, and feeds the returned batch records back through
// the one prefix-merge admission rule — Submit, then Commit once the
// record's journal group has synced (Admit does both and waits). Run
// and Resume drive it with an in-process worker pool; the distributed
// sweep fabric (internal/fabric) drives it with remote workers. Both
// make the same calls, which is what makes the fabric's report,
// committed trial counts and convergence traces byte-identical to a
// single-machine run at any worker count, lease reassignment pattern,
// or coordinator restart.

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Lease identifies one batch-granular work assignment: trials [Lo, Hi)
// of matrix cell Cell. Leases lie on the controller's fixed batch grid;
// the zero Lo/Hi of a real lease are always grid bounds, so a Lease is
// comparable and usable as a map key.
type Lease struct {
	Cell int `json:"cell"`
	Lo   int `json:"lo"`
	Hi   int `json:"hi"`
}

// LeaseController owns one adaptive run and exposes it to a
// coordinator one lease at a time. All methods must be called from a
// single goroutine (the coordinator's event loop): the controller has
// no internal locking. With a checkpoint it also owns the journal's
// writer goroutine, which group-commits submitted records while the
// coordinator keeps issuing leases; Close stops it. The stop rule runs
// on that goroutine once per merged batch, so it avoids Student-t
// quantiles where it can (see merge).
type LeaseController struct {
	cfg    Config
	runner *sweep.Runner
	// tracked[i] lists cell i's journaled measure columns: the four core
	// columns then the cell's CI-eligible extras, in column order.
	// Read-only after construction.
	tracked [][]workload.MeasureInfo
	// ciIdx[i] indexes tracked[i] at the Config.Measures targets.
	ciIdx [][]int
	cells []*cellState
	jw    *journalWriter
	rec   *telemetry.Recorder
	// journaling counts submitted records not yet committed.
	journaling int
	// relCI is merge's scratch: the committed prefix's relative CI
	// half-width per targeted measure (ciIdx order).
	relCI []float64
	// crits memoizes the Student-t critical value by observation count
	// (see crit).
	crits map[int64]float64
}

// NewLeaseController builds a lease controller for a fresh run: the
// configuration is normalized and validated, the spec resolved, and —
// with Config.Checkpoint set — a fresh journal started (an existing
// file is refused). Config.Workers and Config.Interrupt are read only
// by Run's local pool; a fabric coordinator sizes and interrupts its
// own.
func NewLeaseController(cfg Config) (*LeaseController, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cfg.Telemetry.Phase("resolve")
	lc, err := newLeaseController(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Checkpoint != "" {
		h := header{
			Magic:       journalMagic,
			Spec:        cfg.Spec,
			BatchSize:   cfg.BatchSize,
			MinTrials:   cfg.MinTrials,
			MaxTrials:   cfg.MaxTrials,
			TargetRelCI: cfg.TargetRelCI,
			Confidence:  cfg.Confidence,
			Measures:    cfg.Measures,
		}
		jw, err := createJournal(cfg.Checkpoint, h, cfg.Telemetry)
		if err != nil {
			return nil, err
		}
		lc.jw = jw
	}
	return lc, nil
}

// ResumeLeaseController rebuilds a lease controller from a checkpoint
// journal: the header reconstructs the configuration, intact batch
// records replay through the prefix-merge rule, and the journal is
// reopened for appending past the last intact record. A resumed run —
// local or a restarted fabric coordinator — re-issues only the batches
// that were in flight, and its report stays byte-identical to an
// uninterrupted run's.
func ResumeLeaseController(path string, rc ResumeConfig) (*LeaseController, error) {
	jc, err := journalRead(path)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Spec:        jc.header.Spec,
		BatchSize:   jc.header.BatchSize,
		MinTrials:   jc.header.MinTrials,
		MaxTrials:   jc.header.MaxTrials,
		TargetRelCI: jc.header.TargetRelCI,
		Confidence:  jc.header.Confidence,
		Measures:    jc.header.Measures,
		Workers:     rc.Workers,
		Interrupt:   rc.Interrupt,
		Progress:    rc.Progress,
		Telemetry:   rc.Telemetry,
	}
	// Header values were normalized when written; normalize again only
	// to validate (it is idempotent on normalized input).
	if err := cfg.normalize(); err != nil {
		return nil, fmt.Errorf("experiment: checkpoint %s: %w", path, err)
	}
	cfg.Telemetry.Phase("resolve")
	lc, err := newLeaseController(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint %s: %w", path, err)
	}
	// Journal replay goes through the same admission check and
	// prefix-merge rule as live results, so committed counts and
	// convergence traces rebuild bit-identically to the uninterrupted
	// run's. A record journaled for a batch past its cell's stop point
	// (its cell stopped while it waited for its fsync) is dropped here
	// as it was at commit.
	cfg.Telemetry.Phase("replay")
	for i := range jc.batches {
		rec := &jc.batches[i]
		fresh, err := lc.check(rec)
		if err != nil {
			return nil, fmt.Errorf("experiment: checkpoint %s: %w", path, err)
		}
		if fresh {
			lc.merge(rec)
		}
	}
	jw, err := openJournalAppend(path, jc.trusted, cfg.Telemetry)
	if err != nil {
		return nil, err
	}
	lc.jw = jw
	return lc, nil
}

// Config returns the normalized configuration (spec, batch size, trial
// bounds, CI target) — what a coordinator ships to workers in the
// handshake so both sides resolve the identical Runner and batch grid.
func (lc *LeaseController) Config() Config { return lc.cfg }

// Runner returns the resolved spec runner (for cell labels and counts).
func (lc *LeaseController) Runner() *sweep.Runner { return lc.runner }

// Next issues the next lease: the lowest missing batch of the unstopped
// cell with the fewest batches done, in flight or journaling — which is
// what reallocates workers from converged cells to the unconverged long
// tail. A journaling batch (submitted, not yet committed) is never
// reissued. ok is false when every outstanding batch is already leased
// or journaling (or every cell has stopped); admitting or releasing can
// make Next issuable again.
func (lc *LeaseController) Next() (l Lease, ok bool) {
	best, bestCount := -1, 0
	for i, cs := range lc.cells {
		if cs.stopped {
			continue
		}
		count := cs.doneCount + len(cs.inflight) + len(cs.journaling)
		if count >= cs.maxBatches {
			continue // everything issued already
		}
		if best < 0 || count < bestCount {
			best, bestCount = i, count
		}
	}
	if best < 0 {
		return Lease{}, false
	}
	cs := lc.cells[best]
	b := cs.prefix
	for cs.done[b] != nil || cs.inflight[b] || cs.journaling[b] {
		b++
	}
	if b >= cs.maxBatches {
		return Lease{}, false
	}
	cs.inflight[b] = true
	lo, hi := lc.batchBounds(b)
	return Lease{Cell: best, Lo: lo, Hi: hi}, true
}

// Release returns an unfinished lease to the issuable pool — the
// work-stealing primitive: a coordinator releases the leases of a dead
// or evicted worker and Next hands them to whoever asks next. Releasing
// a lease whose result later arrives anyway is safe: admission
// deduplicates on the batch grid, so a twice-run batch merges exactly
// once. Releasing a lease whose batch is journaling leaves it
// journaling.
func (lc *LeaseController) Release(l Lease) {
	if l.Cell < 0 || l.Cell >= len(lc.cells) {
		return
	}
	delete(lc.cells[l.Cell].inflight, l.Lo/lc.cfg.BatchSize)
}

// Admit journals and merges one completed batch record through the
// prefix-merge admission rule, then reports progress to
// Config.Progress: Submit, then Commit of every journal group until
// none is pending, so Admit returns only after the record has been
// fsync'd and merged. fresh is false for a record the committed state
// no longer wants — a duplicate of an admitted or journaling batch, a
// batch past its cell's stop point, or a replay race after a lease was
// stolen and re-run — which is dropped without touching the journal.
// An ErrBadRecord is the sender's fault, not the run's: nothing was
// journaled and the batch is no longer in flight. Any other error is a
// journal write failure, fatal to the run; nothing of its group
// merged. A coordinator should also validate worker-supplied records
// with BatchRecord.Validate before admitting them.
func (lc *LeaseController) Admit(rec *BatchRecord) (fresh bool, err error) {
	if fresh, err = lc.Submit(rec); !fresh {
		return false, err
	}
	for lc.journaling > 0 {
		if err := lc.Commit(<-lc.jw.synced); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Submit is Admit without the wait, for event loops that keep issuing
// leases while the journal syncs. It checks rec through the admission
// rule (fresh and err as for Admit) and, with a checkpoint, queues a
// fresh record for the journal and marks its batch journaling: in
// flight for Next and a duplicate for any twin, until Commit takes the
// record's group from Synced. Without a checkpoint Submit merges the
// record at once.
func (lc *LeaseController) Submit(rec *BatchRecord) (fresh bool, err error) {
	if fresh, err = lc.check(rec); !fresh {
		return false, err
	}
	if lc.jw == nil {
		lc.accept(rec)
		return true, nil
	}
	lc.cells[rec.Cell].journaling[rec.Lo/lc.cfg.BatchSize] = true
	lc.journaling++
	lc.jw.queue(rec)
	return true, nil
}

// Synced delivers each journal group once its fsync has returned, for
// Commit. It is nil without a checkpoint, so a select case on it never
// fires.
func (lc *LeaseController) Synced() <-chan Group {
	if lc.jw == nil {
		return nil
	}
	return lc.jw.synced
}

// Commit merges the records of a group taken from Synced, in the order
// they were submitted, and reports progress for each. A record whose
// cell stopped while it waited for its fsync is dropped, never merged.
// A group whose write or fsync failed merges nothing and returns its
// error, which is fatal to the run.
func (lc *LeaseController) Commit(g Group) error {
	for _, rec := range g.records {
		delete(lc.cells[rec.Cell].journaling, rec.Lo/lc.cfg.BatchSize)
	}
	lc.journaling -= len(g.records)
	if g.err != nil {
		return g.err
	}
	for _, rec := range g.records {
		if !lc.cells[rec.Cell].stopped {
			lc.accept(rec)
		}
	}
	return nil
}

// Journaling counts the records submitted to the journal whose group
// has not been committed yet — outstanding work, like a leased batch.
func (lc *LeaseController) Journaling() int { return lc.journaling }

// accept merges a checked record and reports progress.
func (lc *LeaseController) accept(rec *BatchRecord) {
	lc.merge(rec)
	if lc.cfg.Progress != nil {
		lc.cfg.Progress(lc.Progress())
	}
}

// Done reports whether every cell has stopped (converged or capped) —
// the coordinator's termination condition.
func (lc *LeaseController) Done() bool {
	for _, cs := range lc.cells {
		if !cs.stopped {
			return false
		}
	}
	return true
}

// Progress returns the coarse run progress (cells stopped, committed
// trials).
func (lc *LeaseController) Progress() Progress {
	p := Progress{Cells: len(lc.cells)}
	for _, cs := range lc.cells {
		if cs.stopped {
			p.StoppedCells++
		}
		p.CommittedTrials += cs.trials
	}
	return p
}

// Close flushes every queued record to the checkpoint journal, if any,
// waits for its writer goroutine to exit and closes the file. Records
// still journaling are written but not merged; Close returns the first
// write error among them.
func (lc *LeaseController) Close() error {
	if lc.jw == nil {
		return nil
	}
	return lc.jw.close()
}

// check is the one admission pre-check of live results (Submit) and
// journal replay. It clears the batch's in-flight mark and reports
// whether the committed state still wants the record: fresh is false
// for a duplicate of an admitted or journaling batch or a batch at or
// past its cell's stop point. A wanted record off the batch grid, or
// tracking the wrong number of measures, is an ErrBadRecord.
func (lc *LeaseController) check(rec *BatchRecord) (fresh bool, err error) {
	if rec.Cell < 0 || rec.Cell >= len(lc.cells) {
		return false, fmt.Errorf("experiment: batch record for cell %d of %d", rec.Cell, len(lc.cells))
	}
	cs := lc.cells[rec.Cell]
	b := rec.Lo / lc.cfg.BatchSize
	delete(cs.inflight, b)
	if _, dup := cs.done[b]; dup || cs.journaling[b] || cs.stopped || b < cs.prefix {
		return false, nil
	}
	if lo, hi := lc.batchBounds(b); lo != rec.Lo || hi != rec.Hi {
		return false, fmt.Errorf("%w: [%d,%d) of cell %d off the batch grid", ErrBadRecord, rec.Lo, rec.Hi, rec.Cell)
	}
	if len(rec.Moments) != len(lc.tracked[rec.Cell]) {
		return false, fmt.Errorf("%w: cell %d tracks %d measures, want %d",
			ErrBadRecord, rec.Cell, len(rec.Moments), len(lc.tracked[rec.Cell]))
	}
	return true, nil
}

// merge stores a checked, fresh batch and advances its cell's committed
// prefix as far as it now reaches, evaluating the stop rule once per
// merged batch — the deterministic heart of the controller. Batches
// completed past a stop point are discarded. Untraced, the stop rule
// is onTarget, which settles most merges without a Student-t quantile;
// traced, every trace point needs each targeted measure's exact
// relative half-width, from the memoized critical values (crit).
func (lc *LeaseController) merge(rec *BatchRecord) {
	cell := rec.Cell
	cs := lc.cells[cell]
	cs.done[rec.Lo/lc.cfg.BatchSize] = rec
	cs.doneCount++
	for {
		next, ok := cs.done[cs.prefix]
		if !ok {
			break
		}
		delete(cs.done, cs.prefix)
		cs.prefix++
		cs.trials += next.Hi - next.Lo
		cs.errors += next.Errors
		cs.completed += next.Completed
		for i := range cs.moments {
			cs.moments[i].Merge(next.Moments[i])
		}
		lc.rec.CommitTrials(cell, next.Hi-next.Lo)
		// Fault counts commit with their batch — only on prefix merge,
		// never for speculative batches — so the manifest totals are as
		// deterministic as the committed trial counts, and journal replay
		// rebuilds them identically.
		lc.rec.CommitFaults(uint64(next.Crashes), uint64(next.Sleeps), uint64(next.Erasures))
		// The stop rule and the convergence trace (one point per merged
		// batch) read the committed prefix's relative CI half-width of
		// each targeted measure, computed once for both. Untraced, only
		// the stop rule reads them, up to the first measure off target.
		// Pure prefix state — identical for any worker count.
		converged := lc.cfg.TargetRelCI > 0 && cs.trials >= lc.cfg.MinTrials
		lc.relCI = lc.relCI[:0]
		if lc.rec.Enabled() {
			for _, idx := range lc.ciIdx[cell] {
				m := &cs.moments[idx]
				_, rel := m.Interval(lc.crit(m.N))
				lc.relCI = append(lc.relCI, rel)
				converged = converged && m.N >= 2 && !(rel > lc.cfg.TargetRelCI)
			}
		} else {
			for _, idx := range lc.ciIdx[cell] {
				if !converged {
					break
				}
				converged = lc.onTarget(&cs.moments[idx])
			}
		}
		lc.rec.Trace(cell, cs.prefix-1, cs.trials, lc.relCI)
		if converged {
			cs.stopped, cs.reason = true, "ci"
		} else if cs.trials >= lc.cfg.MaxTrials {
			cs.stopped, cs.reason = true, "max-trials"
		}
		if cs.stopped {
			lc.rec.CellDone(cell, cs.reason)
			// Anything completed past the stop point is speculation waste;
			// drop it so the report sees only committed state.
			for k := range cs.done {
				delete(cs.done, k)
			}
			break
		}
	}
}

// onTarget is the untraced stop rule for one targeted measure: whether
// its relative CI half-width is within the target. The width from
// stats.TQuantileFloor is a lower bound on the exact one (Interval is
// monotone in the critical value), so a bound past the target settles
// "off target", the common case while a cell converges; only otherwise
// is the exact critical value needed. The decision is the exact rule's
// by construction.
func (lc *LeaseController) onTarget(m *stats.Moments) bool {
	if m.N < 2 {
		return false
	}
	if _, low := m.Interval(stats.TQuantileFloor(m.N-1, lc.cfg.Confidence)); low > lc.cfg.TargetRelCI {
		return false
	}
	_, rel := m.Interval(lc.crit(m.N))
	return !(rel > lc.cfg.TargetRelCI)
}

// crit returns the Student-t critical value for a CI over n
// observations, stats.TQuantile at n-1 degrees of freedom and the run's
// confidence, computing each once: cells and trace points that reach
// the same count share it.
func (lc *LeaseController) crit(n int64) float64 {
	t, ok := lc.crits[n]
	if !ok {
		t = stats.TQuantile(n-1, lc.cfg.Confidence)
		lc.crits[n] = t
	}
	return t
}

// newLeaseController resolves the spec and validates the CI measures
// against every cell's eligibility metadata.
func newLeaseController(cfg Config) (*LeaseController, error) {
	runner, err := sweep.NewRunner(cfg.Spec)
	if err != nil {
		return nil, err
	}
	cells := runner.Cells()
	lc := &LeaseController{
		cfg:     cfg,
		runner:  runner,
		tracked: make([][]workload.MeasureInfo, len(cells)),
		ciIdx:   make([][]int, len(cells)),
		cells:   make([]*cellState, len(cells)),
		rec:     cfg.Telemetry,
		crits:   map[int64]float64{},
	}
	lc.rec.StartCells(runner.CellLabels())
	lc.rec.TraceMeasures(cfg.Measures)
	maxBatches := (cfg.MaxTrials + cfg.BatchSize - 1) / cfg.BatchSize
	for i := range cells {
		// Every measure column is tracked, journaled and reported —
		// conditional extras (leader's success-only election columns)
		// simply accumulate fewer samples. Eligibility only restricts
		// which measures the stopping rule may target. Cells with an
		// active fault spec also track the graceful-degradation columns
		// (workload.FaultMeasures), so -ci-measure success works.
		tracked := TrackedMeasures(runner, i)
		lc.tracked[i] = tracked
		for _, name := range cfg.Measures {
			idx := -1
			for j, m := range tracked {
				if m.Name == name {
					if !m.CI {
						return nil, fmt.Errorf("experiment: measure %q of cell %d (%s) is not CI-eligible (%s); eligible: %s",
							name, i, runner.Graph(i).Name(), m.Doc, eligibleNames(tracked))
					}
					idx = j
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("experiment: unknown measure %q for cell %d (%s); eligible: %s",
					name, i, runner.Graph(i).Name(), eligibleNames(tracked))
			}
			lc.ciIdx[i] = append(lc.ciIdx[i], idx)
		}
		lc.cells[i] = &cellState{
			maxBatches: maxBatches,
			done:       map[int]*BatchRecord{},
			inflight:   map[int]bool{},
			journaling: map[int]bool{},
			moments:    make([]stats.Moments, len(tracked)),
		}
	}
	return lc, nil
}

// batchBounds returns batch b's trial range.
func (lc *LeaseController) batchBounds(b int) (lo, hi int) {
	lo = b * lc.cfg.BatchSize
	return lo, min(lo+lc.cfg.BatchSize, lc.cfg.MaxTrials)
}
