// Package telemetry is the observability layer of the sweep engine: a
// zero-overhead-when-disabled collector of run counters (trials, slots,
// batches in flight, simulator-cache traffic, journal fsyncs), per-cell
// progress and convergence traces, and phase timings, aggregated on
// demand into an immutable Snapshot. It backs cmd/sweep's -status HTTP
// endpoint, the /metrics Prometheus exposition (metrics.go), the
// -progress terminal reporter, the -events structured event log
// (events.go), and the run manifest written next to every report
// (manifest.go).
//
// # Fleet aggregation
//
// A fabric worker (internal/fabric) runs its own Recorder and, when the
// coordinator records telemetry, ships its Snapshot inside heartbeat
// and result frames; the coordinator folds them in via WorkerShard, so
// its Snapshot — and therefore /status, /metrics, and the manifest —
// covers the whole fleet. Worker counters are monotonic per worker
// process, so a re-joining worker's counts resume where they left off;
// an evicted worker's last snapshot is retained and flagged stale
// (WorkerGone).
//
// # Design
//
// The run counters (trials and slots run, batches in flight, simulator-
// cache traffic) and the batch-latency histogram are atomics on the
// Recorder itself, updated once per trial batch (BatchStart/BatchDone,
// from sweep.Runner.RunBatch) — never per slot or per device — so the
// radio engine's zero-alloc steady state is untouched (the CI gate on
// BenchmarkSimulatorThroughput holds with telemetry enabled). They
// accumulate for the recorder's life: a recorder spanning several runs
// (cmd/energybench's rows) counts every run's batches. Readers (the
// HTTP handler, the progress printer) load them on demand; they never
// block a worker.
//
// A nil *Recorder is the disabled layer: every method on a nil Recorder
// is a no-op, so instrumentation sites need no branching beyond what
// the compiler inlines away.
//
// # Determinism
//
// Committed-trial counts, stop reasons, and convergence traces are pure
// functions of the spec and controller parameters — bit-identical for
// any worker count, interruption or resume — and are
// what Manifest.DeterministicJSON pins. Wall-clock figures (phase and
// per-cell timings, elapsed seconds) and scheduling-dependent counters
// (speculative trials, cache hits, fsyncs, batches in flight) are
// provenance, not invariants, and are excluded from that subset.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CacheCounts mirrors radio.SimCache's hit/miss counters. Counts are
// scheduling-dependent: which worker's cache serves a trial depends on
// job distribution.
type CacheCounts struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Snapshot is one immutable aggregate of the recorder's counters (and,
// on a fabric coordinator, its fleet workers'), taken at read time.
type Snapshot struct {
	// ElapsedSeconds is wall-clock since New (a timing, never pinned).
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	// TrialsCommitted counts trials merged into committed state —
	// deterministic for a fixed spec.
	TrialsCommitted uint64 `json:"trialsCommitted"`
	// TrialsRun counts trials executed, including adaptive speculation
	// past stop points (scheduling-dependent, >= TrialsCommitted).
	TrialsRun uint64 `json:"trialsRun"`
	// SlotsSimulated sums the slot counts of executed trials.
	SlotsSimulated uint64 `json:"slotsSimulated"`
	// BatchesInFlight counts trial batches currently executing.
	BatchesInFlight int64 `json:"batchesInFlight"`
	// CellsTotal and CellsDone count matrix cells total and finished
	// (converged, capped, or fully run).
	CellsTotal int `json:"cellsTotal"`
	CellsDone  int `json:"cellsDone"`
	// JournalFsyncs counts checkpoint-journal fsyncs, one per group
	// commit of the batch records queued since the previous one;
	// JournalRecords counts the batch records they made durable.
	JournalFsyncs  uint64 `json:"journalFsyncs"`
	JournalRecords uint64 `json:"journalRecords"`
	// FaultCrashes/FaultSleeps/FaultErasures count the faults injected
	// during committed trials (internal/fault). Like TrialsCommitted they
	// are deterministic for a fixed spec — faults are positional hashes
	// and every trial commits exactly once — and all zero (omitted from
	// the JSON) for fault-free runs.
	FaultCrashes  uint64 `json:"faultCrashes,omitempty"`
	FaultSleeps   uint64 `json:"faultSleeps,omitempty"`
	FaultErasures uint64 `json:"faultErasures,omitempty"`
	// SimCache aggregates the workers' simulator-cache traffic.
	SimCache CacheCounts `json:"simCache"`
	// Latencies holds the run's latency histograms, keyed by
	// LatencyBatch / LatencyJournalFsync / LatencyLeaseRoundTrip, merged
	// across fleet workers. Absent until something records.
	Latencies map[string]HistogramSnapshot `json:"latencies,omitempty"`
}

// WorkerSnapshot is the coordinator's record of one fleet worker: its
// identity (name, resolved remote address, code version) and the last
// telemetry snapshot it shipped. Stale marks a worker that was evicted
// or lost — its counters stay in the fleet aggregate (the work
// happened) but its in-flight gauge does not.
type WorkerSnapshot struct {
	Name     string   `json:"name"`
	Addr     string   `json:"addr,omitempty"`
	Version  string   `json:"version,omitempty"`
	Stale    bool     `json:"stale,omitempty"`
	Snapshot Snapshot `json:"snapshot"`
}

// TracePoint is one step of a cell's convergence trace: the state of the
// committed prefix after merging batch Batch. RelCI holds the relative
// CI half-width of each targeted measure (TraceMeasures order); -1
// stands in for undefined values (NaN/Inf) so the JSON stays parseable.
type TracePoint struct {
	Batch  int       `json:"batch"`
	Trials int       `json:"trials"`
	RelCI  []float64 `json:"relCI,omitempty"`
}

// CellStatus is one cell's live progress: committed trials, accumulated
// worker wall-clock, stop reason ("" while running), and the convergence
// trace of an adaptive run.
type CellStatus struct {
	Cell        int          `json:"cell"`
	Label       string       `json:"label"`
	Trials      uint64       `json:"trials"`
	WallSeconds float64      `json:"wallSeconds"`
	Stop        string       `json:"stop,omitempty"`
	Trace       []TracePoint `json:"trace,omitempty"`
}

// Status is the -status endpoint's JSON document.
type Status struct {
	Snapshot      Snapshot     `json:"snapshot"`
	TraceMeasures []string     `json:"traceMeasures,omitempty"`
	Cells         []CellStatus `json:"cells"`
}

// Phase is one timed span of a run (resolve, replay, trials, ...).
type Phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Recorder is the run-wide collector. The zero value is unusable; New
// starts the wall clock. A nil *Recorder is the disabled layer — every
// method no-ops — so callers thread one pointer unconditionally.
type Recorder struct {
	start time.Time

	committed atomic.Uint64
	// fsyncs and journaled count journal group commits and the batch
	// records they covered (JournalFsync).
	fsyncs    atomic.Uint64
	journaled atomic.Uint64
	cellsDone atomic.Int64
	// faults[0..2] hold committed crash/sleep/erasure counts (CommitFaults).
	faults [3]atomic.Uint64
	// The run counters: trials and slots run (BatchDone and Add),
	// batches in flight, and the SimCache hits and misses the batches
	// made.
	trialsRun atomic.Uint64
	slots     atomic.Uint64
	inflight  atomic.Int64
	cache     [2]atomic.Uint64
	// batchLat, fsyncLat and leaseLat are the latency histograms: trial
	// batches (BatchDone), checkpoint fsyncs (JournalFsync) and fabric
	// lease round-trips (LeaseRoundTrip).
	batchLat Histogram
	fsyncLat Histogram
	leaseLat Histogram
	// events is the attached structured event log, nil when -events is
	// off (events.go).
	events atomic.Pointer[EventLog]

	cellTrials []atomic.Uint64
	cellNanos  []atomic.Int64

	mu            sync.Mutex
	labels        []string
	cellStop      []string
	traces        [][]TracePoint
	traceMeasures []string
	phases        []Phase
	curPhase      string
	phaseStart    time.Time
	statusAddr    string
	// workers is the fleet table: the last snapshot each fabric worker
	// shipped, keyed by worker name (WorkerSeen / WorkerShard /
	// WorkerGone). Merged into Snapshot and listed in the manifest.
	workers         map[string]*WorkerSnapshot
	metricAppenders []func(io.Writer)
}

// New starts a recorder (and its wall clock).
func New() *Recorder {
	return &Recorder{start: time.Now()}
}

// Enabled reports whether telemetry is live (r != nil), for callers
// whose instrumentation needs preparatory work no nil method can elide.
func (r *Recorder) Enabled() bool { return r != nil }

// StartCells installs the matrix: one label per cell, in canonical
// (seed-derivation) order. It resets any previous per-cell state, so a
// recorder tracks one matrix at a time; the run counters carry on.
// Call before any worker runs.
func (r *Recorder) StartCells(labels []string) {
	if r == nil {
		return
	}
	r.cellTrials = make([]atomic.Uint64, len(labels))
	r.cellNanos = make([]atomic.Int64, len(labels))
	r.mu.Lock()
	r.labels = append([]string(nil), labels...)
	r.cellStop = make([]string, len(labels))
	r.traces = make([][]TracePoint, len(labels))
	r.mu.Unlock()
	r.cellsDone.Store(0)
}

// TraceMeasures names the convergence-trace columns (the adaptive run's
// CI-targeted measures, in TracePoint.RelCI order).
func (r *Recorder) TraceMeasures(names []string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.traceMeasures = append([]string(nil), names...)
	r.mu.Unlock()
}

// BatchStart marks one trial batch as in flight.
func (r *Recorder) BatchStart() {
	if r == nil {
		return
	}
	r.inflight.Add(1)
}

// BatchDone retires one executed batch of cell: n trials summing to
// slots simulated slots, with cache the SimCache traffic the batch
// made, spent d of worker wall-clock.
func (r *Recorder) BatchDone(cell, n int, slots uint64, cache CacheCounts, d time.Duration) {
	if r == nil {
		return
	}
	r.inflight.Add(-1)
	r.trialsRun.Add(uint64(n))
	r.slots.Add(slots)
	r.cache[0].Add(cache.Hits)
	r.cache[1].Add(cache.Misses)
	r.batchLat.Observe(d)
	if cell >= 0 && cell < len(r.cellNanos) {
		r.cellNanos[cell].Add(int64(d))
	}
}

// CommitTrials folds n committed trials into cell's count, returning
// the cell's new committed total. Committed counts are the
// deterministic spine of the telemetry: for a fixed spec they are
// bit-identical for any worker count.
func (r *Recorder) CommitTrials(cell, n int) uint64 {
	if r == nil {
		return 0
	}
	r.committed.Add(uint64(n))
	if cell < 0 || cell >= len(r.cellTrials) {
		return 0
	}
	total := r.cellTrials[cell].Add(uint64(n))
	if r.eventsOn() {
		// The first committed batch is the cell's observable start: both
		// engines commit in admission order, so total == n identifies it
		// exactly (atomic adds return unique totals).
		if total == uint64(n) {
			r.Event("cell-start", map[string]any{"cell": cell})
		}
		r.Event("batch-commit", map[string]any{"cell": cell, "trials": n, "committed": total})
	}
	return total
}

// CommitFaults folds the injected-fault counts of committed trials into
// the run totals. Callers commit each trial's counts exactly once — at
// the same point its trial commits — so, like committed trial counts,
// the totals are deterministic for a fixed spec (fault decisions are
// positional hashes of (device, slot), never scheduling-dependent).
func (r *Recorder) CommitFaults(crashes, sleeps, erasures uint64) {
	if r == nil {
		return
	}
	r.faults[0].Add(crashes)
	r.faults[1].Add(sleeps)
	r.faults[2].Add(erasures)
}

// CellDone marks one cell finished with a stop reason ("ci",
// "max-trials", or "done" for fixed sweeps).
func (r *Recorder) CellDone(cell int, reason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fresh := cell >= 0 && cell < len(r.cellStop) && r.cellStop[cell] == ""
	if fresh {
		r.cellStop[cell] = reason
		r.cellsDone.Add(1)
	}
	r.mu.Unlock()
	if fresh {
		r.Event("cell-stop", map[string]any{"cell": cell, "reason": reason})
	}
}

// Trace appends one convergence-trace point to cell's trace. relCI is
// copied, with non-finite values replaced by the -1 sentinel so the
// trace always serializes.
func (r *Recorder) Trace(cell, batch, trials int, relCI []float64) {
	if r == nil {
		return
	}
	rel := make([]float64, len(relCI))
	for i, x := range relCI {
		if x != x || x > 1e300 || x < -1e300 {
			x = -1
		}
		rel[i] = x
	}
	r.mu.Lock()
	if cell >= 0 && cell < len(r.traces) {
		r.traces[cell] = append(r.traces[cell], TracePoint{Batch: batch, Trials: trials, RelCI: rel})
	}
	r.mu.Unlock()
}

// JournalFsync counts one checkpoint-journal fsync that took d and made
// records batch records durable (one group commit), feeding the
// LatencyJournalFsync histogram and the event log.
func (r *Recorder) JournalFsync(records int, d time.Duration) {
	if r == nil {
		return
	}
	r.fsyncs.Add(1)
	r.journaled.Add(uint64(records))
	r.fsyncLat.Observe(d)
	if r.eventsOn() {
		r.Event("checkpoint-fsync", map[string]any{"records": records, "seconds": d.Seconds()})
	}
}

// LeaseRoundTrip records one fabric lease's issue-to-result latency
// into the LatencyLeaseRoundTrip histogram: the time from the grant to
// the result, including any time the lease waited queued at its worker
// behind a running batch.
func (r *Recorder) LeaseRoundTrip(d time.Duration) {
	if r == nil {
		return
	}
	r.leaseLat.Observe(d)
}

// Add folds n finished trials (summing to slots simulated slots) into
// the run counters BatchDone feeds, outside any batch — how
// cmd/energybench counts its Theorem 21 and Partition(beta) rows, which
// run on sweep.CollectTrials rather than sweep.Run. The trials count as
// both run and committed.
func (r *Recorder) Add(n int, slots uint64) {
	if r == nil {
		return
	}
	r.trialsRun.Add(uint64(n))
	r.slots.Add(slots)
	r.committed.Add(uint64(n))
}

// WorkerSeen upserts a fleet worker's identity — name, resolved remote
// address, code version — clearing any stale flag from a previous
// eviction. The coordinator calls it at the handshake; the worker's
// counters resume monotonically because the worker process keeps one
// Recorder across redials.
func (r *Recorder) WorkerSeen(name, addr, version string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.workers == nil {
		r.workers = map[string]*WorkerSnapshot{}
	}
	w := r.workers[name]
	if w == nil {
		w = &WorkerSnapshot{Name: name}
		r.workers[name] = w
	}
	w.Addr, w.Version, w.Stale = addr, version, false
}

// WorkerShard stores the latest snapshot a fleet worker shipped.
// Worker run/slot/cache counters and latency histograms merge into
// this recorder's Snapshot; committing stays with the admission rule
// (CommitTrials), so TrialsRun includes speculation and stolen re-runs
// while TrialsCommitted stays deterministic.
func (r *Recorder) WorkerShard(name string, s Snapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.workers == nil {
		r.workers = map[string]*WorkerSnapshot{}
	}
	w := r.workers[name]
	if w == nil {
		w = &WorkerSnapshot{Name: name}
		r.workers[name] = w
	}
	w.Snapshot, w.Stale = s, false
}

// WorkerGone flags a fleet worker stale (evicted or connection lost).
// Its last snapshot is retained — the trials it ran happened — but its
// in-flight gauge stops counting. A later WorkerSeen/WorkerShard for
// the same name (a redial) clears the flag.
func (r *Recorder) WorkerGone(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if w := r.workers[name]; w != nil {
		w.Stale = true
	}
	r.mu.Unlock()
}

// FleetWorkers lists the fleet table (copied, sorted by name) — the
// manifest's record of which machines ran the sweep, and /fabric's
// per-worker telemetry column.
func (r *Recorder) FleetWorkers() []WorkerSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]WorkerSnapshot, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, *w)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetStatusAddr records the resolved -status listen address for the
// manifest's non-deterministic section, so tooling can find the live
// endpoint of a run (":0" included) without scraping stderr.
func (r *Recorder) SetStatusAddr(addr string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.statusAddr = addr
	r.mu.Unlock()
}

// Phase closes the current phase (if any) and opens a named one. Phase
// timings land in the manifest; the final phase is closed by
// BuildManifest or a Phase("") call.
func (r *Recorder) Phase(name string) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	if r.curPhase != "" {
		r.phases = append(r.phases, Phase{Name: r.curPhase, Seconds: now.Sub(r.phaseStart).Seconds()})
	}
	r.curPhase, r.phaseStart = name, now
	r.mu.Unlock()
	if name != "" {
		r.Event("phase", map[string]any{"phase": name})
	}
}

// Snapshot reads the counters — and, on a fabric coordinator, merges
// every fleet worker's shipped snapshot — into one immutable aggregate.
// Fleet workers contribute their run-side counters (trials run, slots,
// cache traffic, latency histograms; in-flight batches only while the
// worker is live); committed counts, fault totals, cells, and fsyncs
// are coordinator-side state and never double count.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		ElapsedSeconds:  time.Since(r.start).Seconds(),
		TrialsCommitted: r.committed.Load(),
		TrialsRun:       r.trialsRun.Load(),
		SlotsSimulated:  r.slots.Load(),
		BatchesInFlight: r.inflight.Load(),
		JournalFsyncs:   r.fsyncs.Load(),
		JournalRecords:  r.journaled.Load(),
		FaultCrashes:    r.faults[0].Load(),
		FaultSleeps:     r.faults[1].Load(),
		FaultErasures:   r.faults[2].Load(),
		CellsDone:       int(r.cellsDone.Load()),
		SimCache:        CacheCounts{Hits: r.cache[0].Load(), Misses: r.cache[1].Load()},
	}
	lat := map[string]HistogramSnapshot{}
	addLat := func(key string, h HistogramSnapshot) {
		if h.Count == 0 {
			return
		}
		cur := lat[key]
		cur.Merge(h)
		lat[key] = cur
	}
	addLat(LatencyBatch, r.batchLat.Snapshot())
	addLat(LatencyJournalFsync, r.fsyncLat.Snapshot())
	addLat(LatencyLeaseRoundTrip, r.leaseLat.Snapshot())
	r.mu.Lock()
	s.CellsTotal = len(r.labels)
	for _, w := range r.workers {
		s.TrialsRun += w.Snapshot.TrialsRun
		s.SlotsSimulated += w.Snapshot.SlotsSimulated
		s.SimCache.Hits += w.Snapshot.SimCache.Hits
		s.SimCache.Misses += w.Snapshot.SimCache.Misses
		if !w.Stale {
			s.BatchesInFlight += w.Snapshot.BatchesInFlight
		}
		for k, h := range w.Snapshot.Latencies {
			addLat(k, h)
		}
	}
	r.mu.Unlock()
	if len(lat) > 0 {
		s.Latencies = lat
	}
	return s
}

// Cells returns every cell's live status, traces included (copied; the
// caller owns the result).
func (r *Recorder) Cells() []CellStatus {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CellStatus, len(r.labels))
	for i := range r.labels {
		out[i] = CellStatus{
			Cell:        i,
			Label:       r.labels[i],
			Trials:      r.cellTrials[i].Load(),
			WallSeconds: float64(r.cellNanos[i].Load()) / 1e9,
			Stop:        r.cellStop[i],
			Trace:       append([]TracePoint(nil), r.traces[i]...),
		}
	}
	return out
}

// StatusDoc assembles the -status endpoint's document.
func (r *Recorder) StatusDoc() Status {
	if r == nil {
		return Status{}
	}
	r.mu.Lock()
	measures := append([]string(nil), r.traceMeasures...)
	r.mu.Unlock()
	return Status{Snapshot: r.Snapshot(), TraceMeasures: measures, Cells: r.Cells()}
}

// StartProgress launches the periodic one-line terminal reporter: every
// interval it rewrites one \r-anchored line, prefixed with tool, with
// committed trials, done cells, the trial-commit rate, and an ETA
// extrapolated from that rate.
// totalTrials is the run's expected trial total (0 suppresses the ETA);
// upperBound marks it as a cap (adaptive runs finish early), rendering
// the ETA as "<= x". The returned stop function prints the final state
// and a newline; it must be called before the process's own final
// output.
func (r *Recorder) StartProgress(w io.Writer, tool string, interval time.Duration, totalTrials uint64, upperBound bool) (stop func()) {
	if r == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	line := func() {
		s := r.Snapshot()
		fmt.Fprintf(w, "\r%s: %d", tool, s.TrialsCommitted)
		if totalTrials > 0 {
			if upperBound {
				fmt.Fprintf(w, "/<=%d", totalTrials)
			} else {
				fmt.Fprintf(w, "/%d", totalTrials)
			}
		}
		fmt.Fprintf(w, " trials · %d/%d cells", s.CellsDone, s.CellsTotal)
		if s.ElapsedSeconds > 0 {
			rate := float64(s.TrialsCommitted) / s.ElapsedSeconds
			fmt.Fprintf(w, " · %.0f trials/s", rate)
			if totalTrials > 0 && rate > 0 && s.TrialsCommitted < totalTrials {
				eta := float64(totalTrials-s.TrialsCommitted) / rate
				prefix := ""
				if upperBound {
					prefix = "<="
				}
				fmt.Fprintf(w, " · ETA %s%s", prefix, time.Duration(eta*float64(time.Second)).Round(time.Second))
			}
		}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				line()
			case <-done:
				line()
				fmt.Fprintln(w)
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
