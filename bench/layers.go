package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/sweep"
	// The package's own name would clash with this benchmark's workload
	// type; the sweep docs call its entries scenarios.
	scenario "repro/internal/workload"
)

// tracer keeps the traced pass's spans in memory: one per call into a
// layer's public function, named after it, with the span that caused it.
// All calls run on one goroutine, so sibling spans never overlap.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Self     int64  `json:"self_ns"`
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// reserve grows the span buffer ahead of a timed loop, so appending a
// span inside it never allocates.
func (t *tracer) reserve(n int) {
	if t != nil && cap(t.spans)-len(t.spans) < n {
		t.spans = append(make([]span, 0, len(t.spans)+n), t.spans...)
	}
}

// open starts a span whose children follow; close ends it. A nil tracer
// records nothing.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Start: now, End: now, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) {
	if t != nil && id >= 0 {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
	}
}

// add records a leaf span the caller timed.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Workload: t.workload,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent})
}

// write fills in each span's self time, its duration minus the part its
// children cover, and writes the spans with per-name totals to path.
func (t *tracer) write(path string) error {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type total struct {
		Count int   `json:"count"`
		Total int64 `json:"total_ns"`
		Self  int64 `json:"self_ns"`
	}
	byName := map[string]*total{}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - child[i]
		tt := byName[s.Name]
		if tt == nil {
			tt = &total{}
			byName[s.Name] = tt
		}
		tt.Count++
		tt.Total += s.End - s.Start
		tt.Self += s.Self
	}
	b, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		ByName   map[string]*total `json:"by_name"`
		Spans    []span            `json:"spans"`
	}{t.workload, byName, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// broadcastOptions mirrors the broadcast workload's per-trial options
// (internal/workload), so a direct core call runs the trial a sweep
// worker runs. seed 0 leaves the seed out, for BroadcastBatch.
func broadcastOptions(c sweep.Cell, spec sweep.Spec, sims *radio.SimCache, seed uint64) []core.Option {
	opts := []core.Option{core.WithModel(c.Model), core.WithAlgorithm(c.Algorithm), core.WithSimCache(sims)}
	if spec.Lean {
		opts = append(opts, core.WithLeanScale())
	}
	if seed != 0 {
		opts = append(opts, core.WithSeed(seed))
	}
	return opts
}

// graphLayer times sweep.Topology.Build and graph.Diameter on every
// cell and returns the per-cell means of their medians, in ms.
func graphLayer(r *sweep.Runner, tr *tracer, parent int) (buildMs, diamMs float64, err error) {
	const builds, diams = 5, 3
	cells := r.Cells()
	for c, cell := range cells {
		var b, d []float64
		for i := 0; i < builds; i++ {
			t0 := time.Now()
			if _, err := cell.Topology.Build(); err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			tr.add("sweep.Topology.Build", parent, t0, t1)
			b = append(b, ms(t1.Sub(t0)))
		}
		for i := 0; i < diams; i++ {
			t0 := time.Now()
			if _, err := r.Graph(c).Diameter(); err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			tr.add("graph.Diameter", parent, t0, t1)
			d = append(d, ms(t1.Sub(t0)))
		}
		buildMs += median(b) / float64(len(cells))
		diamMs += median(d) / float64(len(cells))
	}
	return buildMs, diamMs, nil
}

// throughputProc is a synthetic device: 100 slots of random transmit or
// listen, so a run measures the engine's per-action cost with no
// protocol logic.
type throughputProc struct{ s uint64 }

func (p *throughputProc) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	p.s++
	if p.s > 100 {
		return radio.Halt()
	}
	if ch.Rand().Uint64()&1 == 0 {
		return radio.Transmit(p.s, p.s)
	}
	return radio.Listen(p.s)
}

// substrateLayer runs synthetic clique-64 populations on one reused
// simulator for budget (at least minRuns runs) and returns host ns per
// device action.
func substrateLayer(budget time.Duration, minRuns int, tr *tracer, parent int) (float64, error) {
	const n = 64
	g := graph.Clique(n)
	t0 := time.Now()
	sim, err := radio.NewSimulator(g, radio.Config{Graph: g, Model: radio.CD})
	tr.add("radio.NewSimulator", parent, t0, time.Now())
	if err != nil {
		return 0, err
	}
	procs := make([]throughputProc, n)
	devs := make([]radio.Device, n)
	for v := range devs {
		devs[v].Proc = &procs[v]
	}
	var busy time.Duration
	var events uint64
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < budget; i++ {
		for v := range procs {
			procs[v] = throughputProc{}
		}
		t0 := time.Now()
		res, err := sim.RunDevices(uint64(i+1), devs)
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		tr.add("radio.Simulator.RunDevices", parent, t0, t1)
		busy += t1.Sub(t0)
		events += res.Events
	}
	return float64(busy.Nanoseconds()) / float64(events), nil
}

// coreStats is the record of the core.Broadcast loop.
type coreStats struct {
	durs    []float64   // ms per call, every cell
	perCell [][]float64 // ms per call, by cell
	// Per-trial means of the simulated measures.
	slots, events, maxEnergy, totalEnergy float64
	allocs, bytes                         float64 // per trial
	gcFrac                                float64
}

// maxCoreSamples caps the loop, so the span and duration buffers can be
// sized before it starts and the loop's allocation counts are the
// trials' own.
const maxCoreSamples = 20000

// coreLoop times core.Broadcast per seed, round-robin over the cells,
// with one reused SimCache: a sweep worker's trial minus the sweep layer.
// It runs until deadline and at least minSamples calls.
func coreLoop(r *sweep.Runner, spec sweep.Spec, deadline time.Time, minSamples int, tr *tracer, parent int) (*coreStats, error) {
	cells := r.Cells()
	sims := &radio.SimCache{}
	st := &coreStats{durs: make([]float64, 0, maxCoreSamples), perCell: make([][]float64, len(cells))}
	for c := range st.perCell {
		st.perCell[c] = make([]float64, 0, maxCoreSamples/len(cells)+1)
	}
	tr.reserve(maxCoreSamples)
	var slots, events, maxE, totE uint64
	var m0, m1 runtime.MemStats
	gc0, user0 := gcCPU()
	runtime.ReadMemStats(&m0)
	n := 0
	for ; n < maxCoreSamples && (n < minSamples || time.Now().Before(deadline)); n++ {
		c, t := n%len(cells), n/len(cells)
		opts := broadcastOptions(cells[c], spec, sims, sweep.TrialSeed(spec.MasterSeed, c, t))
		t0 := time.Now()
		res, err := core.Broadcast(r.Graph(c), spec.Source, opts...)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("core.Broadcast cell %d trial %d: %w", c, t, err)
		}
		tr.add("core.Broadcast", parent, t0, t1)
		d := ms(t1.Sub(t0))
		st.durs = append(st.durs, d)
		st.perCell[c] = append(st.perCell[c], d)
		slots += res.Slots
		events += res.Events
		maxE += uint64(res.MaxEnergy())
		totE += uint64(res.TotalEnergy())
	}
	runtime.ReadMemStats(&m1)
	gc1, user1 := gcCPU()
	fn := float64(n)
	st.slots, st.events = float64(slots)/fn, float64(events)/fn
	st.maxEnergy, st.totalEnergy = float64(maxE)/fn, float64(totE)/fn
	st.allocs = float64(m1.Mallocs-m0.Mallocs) / fn
	st.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / fn
	if busy := (gc1 - gc0) + (user1 - user0); busy > 0 {
		st.gcFrac = (gc1 - gc0) / busy
	}
	return st, nil
}

// gcCPU reads the runtime's estimates of GC and user-code CPU seconds.
func gcCPU() (gc, user float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// batchLayer times one core.BroadcastBatch of width seeds per cell and
// returns the summed batch time, in ms, for the speedup against the
// solo calls of coreLoop.
func batchLayer(r *sweep.Runner, spec sweep.Spec, width int, tr *tracer, parent int) (float64, error) {
	sims := &radio.SimCache{}
	var total float64
	for c, cell := range r.Cells() {
		seeds := make([]uint64, width)
		for t := range seeds {
			seeds[t] = sweep.TrialSeed(spec.MasterSeed, c, t)
		}
		t0 := time.Now()
		_, errs, err := core.BroadcastBatch(r.Graph(c), spec.Source, seeds, broadcastOptions(cell, spec, sims, 0)...)
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		for _, e := range errs {
			if e != nil {
				return 0, e
			}
		}
		tr.add("core.BroadcastBatch", parent, t0, t1)
		total += ms(t1.Sub(t0))
	}
	return total, nil
}

// overheadLayer times Runner.RunTrials on one trial against core.Broadcast
// on the same seed, alternating which goes first, for budget (at least
// minPairs pairs). It returns the median difference in µs, and an error if
// the two ever measure the trial differently.
func overheadLayer(r *sweep.Runner, spec sweep.Spec, budget time.Duration, minPairs int, tr *tracer, parent int) (float64, error) {
	cells := r.Cells()
	sims := &radio.SimCache{}
	buf := make([]sweep.Trial, 1)
	var diffs []float64
	start := time.Now()
	for k := 0; k < minPairs || time.Since(start) < budget; k++ {
		c, t := k%len(cells), k/len(cells)
		var rt, bc time.Duration
		var res *core.Result
		var err error
		for i := 0; i < 2; i++ {
			if (i+k)%2 == 0 {
				t0 := time.Now()
				r.RunTrials(c, t, t+1, sims, buf)
				t1 := time.Now()
				tr.add("sweep.Runner.RunTrials", parent, t0, t1)
				rt = t1.Sub(t0)
			} else {
				opts := broadcastOptions(cells[c], spec, sims, sweep.TrialSeed(spec.MasterSeed, c, t))
				t0 := time.Now()
				res, err = core.Broadcast(r.Graph(c), spec.Source, opts...)
				t1 := time.Now()
				tr.add("core.Broadcast", parent, t0, t1)
				bc = t1.Sub(t0)
			}
		}
		if err != nil {
			return 0, err
		}
		got := buf[0]
		if got.Err != "" || got.Slots != res.Slots || got.Events != res.Events ||
			got.MaxEnergy != res.MaxEnergy() || got.TotalEnergy != res.TotalEnergy() || got.Completed != res.AllInformed() {
			return 0, fmt.Errorf("cell %d trial %d: Runner.RunTrials and core.Broadcast disagree", c, t)
		}
		diffs = append(diffs, float64((rt-bc).Nanoseconds())/1e3)
	}
	return median(diffs), nil
}

// scalingLayer runs sweep.Run at one and at cliWorkers workers and
// returns the parallel efficiency, checking the two reports agree.
func scalingLayer(spec sweep.Spec, trials int, tr *tracer, parent int) (float64, error) {
	spec.Trials = trials
	var walls [2]time.Duration
	var reports [2][]byte
	for i, workers := range []int{1, cliWorkers} {
		t0 := time.Now()
		rep, err := sweep.Run(spec, sweep.Options{Workers: workers})
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		tr.add(fmt.Sprintf("sweep.Run/workers=%d", workers), parent, t0, t1)
		walls[i] = t1.Sub(t0)
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return 0, err
		}
		reports[i] = buf.Bytes()
	}
	if !bytes.Equal(reports[0], reports[1]) {
		return 0, fmt.Errorf("sweep.Run reports differ between 1 and %d workers", cliWorkers)
	}
	return walls[0].Seconds() / walls[1].Seconds() / cliWorkers, nil
}

// leaseRun is the record of one in-process lease loop.
type leaseRun struct {
	report  []byte
	leases  []experiment.Lease
	records []*experiment.BatchRecord
	// Microseconds per call.
	next, fold, admit []float64
}

// leaseLoop drives an experiment through the lease API on one goroutine:
// NewLeaseController, then Next, Runner.RunTrials, FoldBatch and Admit
// until Done. It is the loop sweepd runs with its workers folded in, and
// its report must match the CLIs' byte for byte.
func leaseLoop(cfg experiment.Config, tr *tracer, parent int) (lr *leaseRun, err error) {
	lc, err := experiment.NewLeaseController(cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := lc.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	r := lc.Runner()
	tracked := make([][]scenario.MeasureInfo, len(r.Cells()))
	for c := range tracked {
		tracked[c] = experiment.TrackedMeasures(r, c)
	}
	sims := &radio.SimCache{}
	lr = &leaseRun{}
	for !lc.Done() {
		t0 := time.Now()
		l, ok := lc.Next()
		t1 := time.Now()
		if !ok {
			return nil, fmt.Errorf("lease loop: no lease issuable before the run is done")
		}
		buf := make([]sweep.Trial, l.Hi-l.Lo)
		r.RunTrials(l.Cell, l.Lo, l.Hi, sims, buf)
		t2 := time.Now()
		rec := experiment.FoldBatch(tracked[l.Cell], l.Cell, l.Lo, l.Hi, buf)
		t3 := time.Now()
		fresh, err := lc.Admit(rec)
		t4 := time.Now()
		if err != nil {
			return nil, err
		}
		if !fresh {
			return nil, fmt.Errorf("lease loop: batch %+v admitted as stale", l)
		}
		tr.add("experiment.LeaseController.Next", parent, t0, t1)
		tr.add("sweep.Runner.RunTrials", parent, t1, t2)
		tr.add("experiment.FoldBatch", parent, t2, t3)
		tr.add("experiment.LeaseController.Admit", parent, t3, t4)
		lr.leases = append(lr.leases, l)
		lr.records = append(lr.records, rec)
		lr.next = append(lr.next, us(t1.Sub(t0)))
		lr.fold = append(lr.fold, us(t3.Sub(t2)))
		lr.admit = append(lr.admit, us(t4.Sub(t3)))
	}
	var buf bytes.Buffer
	if err := lc.Report().WriteJSON(&buf); err != nil {
		return nil, err
	}
	lr.report = buf.Bytes()
	return lr, nil
}

// admitReplay feeds a lease loop's records, in the same order, to a fresh
// controller built from cfg, and returns the Admit times in µs. With no
// checkpoint in cfg, the difference from the journaled loop's Admit is
// the journal's cost per batch.
func admitReplay(cfg experiment.Config, lr *leaseRun, tr *tracer, parent int) ([]float64, error) {
	lc, err := experiment.NewLeaseController(cfg)
	if err != nil {
		return nil, err
	}
	defer lc.Close()
	var out []float64
	for i, rec := range lr.records {
		if l, ok := lc.Next(); !ok || l != lr.leases[i] {
			return nil, fmt.Errorf("admit replay: lease %d is %+v, want %+v", i, l, lr.leases[i])
		}
		t0 := time.Now()
		if _, err := lc.Admit(rec); err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.add("experiment.LeaseController.Admit", parent, t0, t1)
		out = append(out, us(t1.Sub(t0)))
	}
	if !lc.Done() {
		return nil, fmt.Errorf("admit replay: run not done after %d batches", len(lr.records))
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
