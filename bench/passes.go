package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/radio"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// timedPass runs the workload through the CLIs, one process tree at a
// time, for pc.seconds (and at least pc.minRuns runs), with no telemetry
// in the CLIs and the speed probe after each run. Before the clock starts
// it measures set-up time and retained heap in-process, and computes the
// reference report every run must reproduce.
func timedPass(w workload, b bins, pc passConfig) (*passResult, error) {
	p := newPassResult(w, pc.seed, endToEndMetrics)
	spec, err := w.spec(pc.seed)
	if err != nil {
		return nil, err
	}
	heap, err := retainedHeapMB(w, spec)
	if err != nil {
		return nil, err
	}
	p.set("retained_heap_mb", heap)
	setup, err := setupSeconds(spec, pc.setupCalls)
	if err != nil {
		return nil, err
	}

	ref, err := reference(w, pc.seed)
	if err != nil {
		return nil, err
	}
	want := digest(ref)
	if pin := w.pin(pc.seed); pin != "" && want != pin {
		p.problem("reference report digest %s, pinned %s", want, pin)
	}
	refSum, err := summarize(ref)
	if err != nil {
		return nil, err
	}

	job := cliJob{fabric: w.fabric}
	if w.trials > 0 {
		job.args = append(w.matrixArgs(pc.seed), "-trials", strconv.Itoa(w.trials))
	} else {
		job.args, job.journal = w.journaledArgs(pc.seed), true
	}
	var tps, walls, cpus, probes, rounds []float64
	var runs []map[string]any
	ok := 0
	start := time.Now()
	for len(runs) < pc.minRuns || time.Since(start).Seconds()+median(rounds) <= pc.seconds {
		t0 := time.Now()
		dir, err := os.MkdirTemp(pc.work, "run-")
		if err != nil {
			return nil, err
		}
		job.dir = dir
		r, err := job.run(b)
		os.RemoveAll(dir)
		if err == nil && r.digest != want {
			err = fmt.Errorf("report digest %s, reference %s", r.digest, want)
		}
		runs = append(runs, map[string]any{"wall_s": r.wall.Seconds(), "cpu_s": r.cpu.Seconds(),
			"trials": r.sum.trials, "completed": r.sum.completed, "digest": r.digest})
		if err != nil {
			// A failed run fails all the trials it should have run; stop, as
			// the result is already wrong.
			p.problem("run %d: %v", len(runs), err)
			p.count(refSum, false)
			break
		}
		p.count(r.sum, true)
		ok += r.sum.completed
		tps = append(tps, float64(r.sum.trials)/r.wall.Seconds())
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds()/float64(r.sum.trials)*1000)
		probes = append(probes, probe().Seconds())
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	if len(walls) == 0 {
		tps, walls, cpus, probes = []float64{0}, []float64{0}, []float64{0}, []float64{probeRef}
	}
	// Report every timing at the baseline box's speed (see probe.go).
	slow := median(probes) / probeRef
	scale := func(xs []float64, by float64) []float64 {
		for i := range xs {
			xs[i] *= by
		}
		return xs
	}
	p.set("trials_per_s", scale(tps, slow)...)
	p.set("wall_s", scale(walls, 1/slow)...)
	p.set("cpu_s_per_ktrial", scale(cpus, 1/slow)...)
	p.set("setup_s", scale(setup, 1/slow)...)
	p.set("trial_ok_frac", float64(ok)/float64(p.attempted))
	p.detail["runs"] = runs
	p.detail["probe_s"] = probes
	p.detail["slowdown"] = slow
	p.detail["reference_digest"] = want
	return p, nil
}

// reference runs the workload's spec in-process through the library,
// sweep.Run for a fixed sweep and the lease loop for an adaptive one, and
// returns the report every CLI run must reproduce byte for byte.
func reference(w workload, seed uint64) ([]byte, error) {
	if w.trials == 0 {
		cfg, err := w.journaledConfig(seed)
		if err != nil {
			return nil, err
		}
		lr, err := leaseLoop(cfg, nil, -1)
		if err != nil {
			return nil, err
		}
		return lr.report, nil
	}
	spec, err := w.spec(seed)
	if err != nil {
		return nil, err
	}
	rep, err := sweep.Run(spec, sweep.Options{Workers: cliWorkers})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = rep.WriteJSON(&buf)
	return buf.Bytes(), err
}

// setupSeconds times sweep.NewRunner, the set-up every sweep, sweepd and
// worker process does before its first trial. The calls run on one CPU
// (see onOneCPU). The first calls are not timed: they grow the heap to
// its steady size, which a forced collection before each call would
// instead make every call pay for again.
func setupSeconds(spec sweep.Spec, calls int) (out []float64, err error) {
	const warmup = 20
	out = make([]float64, calls)
	onOneCPU(func() {
		for i := -warmup; i < calls && err == nil; i++ {
			t0 := time.Now()
			var r *sweep.Runner
			r, err = sweep.NewRunner(spec)
			d := time.Since(t0).Seconds()
			runtime.KeepAlive(r)
			if i >= 0 {
				out[i] = d
			}
		}
	})
	return out, err
}

// retainedHeapMB is the live heap a Runner holds after one batch on every
// cell, with the simulator cache that batch filled, over the heap before
// it was built: the memory a plan or diameter memo would add.
func retainedHeapMB(w workload, spec sweep.Spec) (float64, error) {
	batch := 1
	if w.trials == 0 {
		batch = adaptiveBatch
	}
	base := liveHeap()
	r, err := sweep.NewRunner(spec)
	if err != nil {
		return 0, err
	}
	sims := &radio.SimCache{}
	buf := make([]sweep.Trial, batch)
	for c := range r.Cells() {
		r.RunTrials(c, 0, batch, sims, buf)
	}
	after := liveHeap()
	runtime.KeepAlive(r)
	runtime.KeepAlive(sims)
	return (float64(after) - float64(base)) / 1e6, nil
}

func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tracePass measures each layer from outside, on one goroutine, and
// records a span around every call. It runs the workload's journaled form
// in-process through the lease API and through the CLIs (plain, with
// telemetry, profiled, and through the fabric with and without telemetry);
// all six reports must agree byte for byte. The core.Broadcast loop runs
// last and fills the time left to pc.seconds, or two layer budgets if
// that is longer.
func tracePass(w workload, b bins, pc passConfig) (*passResult, error) {
	deadline := time.Now().Add(time.Duration(pc.seconds * float64(time.Second)))
	p := newPassResult(w, pc.seed, perLayerMetrics)
	tr := newTracer(w.name)
	spec, err := w.spec(pc.seed)
	if err != nil {
		return nil, err
	}
	r, err := sweep.NewRunner(spec)
	if err != nil {
		return nil, err
	}

	id := tr.open("graph", -1)
	buildMs, diamMs, err := graphLayer(r, tr, id)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	id = tr.open("radio", -1)
	nsPerAction, err := substrateLayer(pc.layerBudget/4, 20, tr, id)
	tr.close(id)
	if err != nil {
		return nil, err
	}

	cfg, err := w.journaledConfig(pc.seed)
	if err != nil {
		return nil, err
	}
	cfg.Checkpoint = filepath.Join(pc.work, "lease.ckpt")
	id = tr.open("experiment.lease_loop", -1)
	lr, err := leaseLoop(cfg, tr, id)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	journal, err := os.Stat(cfg.Checkpoint)
	if err != nil {
		return nil, err
	}
	cfg.Checkpoint = ""
	id = tr.open("experiment.admit_replay", -1)
	admitBare, err := admitReplay(cfg, lr, tr, id)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	want := digest(lr.report)
	leaseSum, err := summarize(lr.report)
	if err != nil {
		return nil, err
	}
	pinOK := true
	if pin := w.pin(pc.seed); pin != "" && w.trials == 0 && want != pin {
		p.problem("lease loop report digest %s, pinned %s", want, pin)
		pinOK = false
	}
	p.count(leaseSum, pinOK)
	digests := map[string]string{"lease_loop": want}

	if err := os.MkdirAll(pc.traceDir, 0o755); err != nil {
		return nil, err
	}
	args := w.journaledArgs(pc.seed)
	jobs := []struct {
		name string
		job  cliJob
	}{
		{"cli.sweep", cliJob{args: args, journal: true}},
		{"cli.sweep+telemetry", cliJob{args: args, journal: true, telemetry: true}},
		{"cli.sweep+cpuprofile", cliJob{args: args, journal: true, profile: true}},
		{"cli.sweepd", cliJob{args: args, journal: true, fabric: true}},
		{"cli.sweepd+telemetry", cliJob{args: args, journal: true, fabric: true, telemetry: true}},
	}
	walls := map[string]float64{}
	var local, fabric manifestSnap
	for _, j := range jobs {
		j.job.dir = filepath.Join(pc.work, j.name)
		if err := os.Mkdir(j.job.dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		run, err := j.job.run(b)
		tr.add(j.name, -1, t0, time.Now())
		if err == nil && run.digest != want {
			err = fmt.Errorf("report digest %s, lease loop %s", run.digest, want)
		}
		digests[j.name] = run.digest
		if err != nil {
			p.problem("%s: %v", j.name, err)
			p.count(leaseSum, false)
			continue
		}
		p.count(run.sum, true)
		walls[j.name] = run.wall.Seconds()
		switch j.name {
		case "cli.sweep+telemetry":
			err = local.read(j.job.path("sweep.manifest.json"))
		case "cli.sweepd+telemetry":
			err = fabric.read(j.job.path("sweepd.manifest.json"))
		case "cli.sweep+cpuprofile":
			err = os.Rename(j.job.path("cpu.pprof"), filepath.Join(pc.traceDir, "cpu.pprof"))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.name, err)
		}
	}

	id = tr.open("sweep", -1)
	overheadUs, err := overheadLayer(r, spec, pc.layerBudget, pc.minPairs, tr, id)
	if err == nil {
		var eff float64
		eff, err = scalingLayer(spec, w.scaleTrials, tr, id)
		p.set("sweep.scaling_eff", eff)
	}
	tr.close(id)
	if err != nil {
		return nil, err
	}

	id = tr.open("core", -1)
	batchMs, err := batchLayer(r, spec, pc.batchWidth, tr, id)
	var cs *coreStats
	if err == nil {
		if least := time.Now().Add(2 * pc.layerBudget); deadline.Before(least) {
			deadline = least
		}
		cs, err = coreLoop(r, spec, deadline, pc.minSamples, tr, id)
	}
	tr.close(id)
	if err != nil {
		return nil, err
	}

	p50 := median(cs.durs)
	tailMs, tailPct := tail(cs.durs)
	var soloMs float64
	for _, d := range cs.perCell {
		soloMs += float64(pc.batchWidth) * mean(d)
	}
	planned := 0.0
	if w.plansDiameter {
		planned = diamMs
	}
	p.set("graph.build_ms", buildMs)
	p.set("graph.diameter_ms", diamMs)
	p.set("graph.diameter_share", planned/p50)
	p.set("core.trial_ms_p50", cs.durs...)
	p.set("core.trial_ms_tail", tailMs)
	p.set("core.allocs_per_trial", cs.allocs)
	p.set("core.bytes_per_trial", cs.bytes)
	p.set("core.batch16_speedup", soloMs/batchMs)
	p.set("radio.substrate_ns_per_action", nsPerAction)
	p.set("radio.slots_per_trial", cs.slots)
	p.set("radio.events_per_trial", cs.events)
	p.set("radio.max_energy_per_trial", cs.maxEnergy)
	p.set("radio.host_ns_per_event", p50*1e6/cs.events)
	p.set("protocol.self_ms_per_trial", p50-planned-nsPerAction*cs.totalEnergy/1e6)
	p.set("runtime.gc_cpu_frac", cs.gcFrac)
	p.set("sweep.trial_overhead_us", overheadUs)
	p.set("experiment.batches", float64(len(lr.records)))
	p.set("experiment.next_us_p50", lr.next...)
	p.set("experiment.admit_us_p50", lr.admit...)
	admitTail, admitPct := tail(lr.admit)
	p.set("experiment.admit_us_tail", admitTail)
	p.set("experiment.journal_us_per_batch", median(lr.admit)-median(admitBare))
	p.set("experiment.fold_us_per_batch", lr.fold...)
	p.set("experiment.journal_bytes_per_batch", float64(journal.Size())/float64(len(lr.records)))
	p.set("experiment.commit_ratio", local.commitRatio())
	rtt := fabric.Snapshot.Latencies[telemetry.LatencyLeaseRoundTrip]
	rttTail, rttPct := histTail(rtt)
	p.set("fabric.lease_rtt_ms_p50", histQuantile(rtt, 0.5)*1e3)
	p.set("fabric.lease_rtt_ms_tail", rttTail*1e3)
	p.set("fabric.commit_ratio", fabric.commitRatio())
	p.set("fabric.overhead_frac", ratio(walls["cli.sweepd"], walls["cli.sweep"])-1)
	p.set("telemetry.overhead_frac", ratio(walls["cli.sweep+telemetry"], walls["cli.sweep"])-1)

	p.detail["digests"] = digests
	p.detail["cli_wall_s"] = walls
	p.detail["tail_percentiles"] = map[string]float64{"core.trial_ms_tail": tailPct,
		"experiment.admit_us_tail": admitPct, "fabric.lease_rtt_ms_tail": rttPct}
	p.detail["lease_rtt_count"] = rtt.Count
	p.detail["code_version"] = local.Version
	p.detail["trace_dir"] = pc.traceDir
	return p, tr.write(filepath.Join(pc.traceDir, "trace.json"))
}

// manifestSnap is the part of a CLI run manifest the traced pass reads.
type manifestSnap struct {
	Version  string `json:"version"`
	Snapshot struct {
		TrialsCommitted uint64                                 `json:"trialsCommitted"`
		TrialsRun       uint64                                 `json:"trialsRun"`
		Latencies       map[string]telemetry.HistogramSnapshot `json:"latencies"`
	} `json:"snapshot"`
}

func (m *manifestSnap) read(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, m)
}

// commitRatio is the share of the trials run that the controller
// committed; the rest ran speculatively past a cell's stop point.
func (m *manifestSnap) commitRatio() float64 {
	return ratio(float64(m.Snapshot.TrialsCommitted), float64(m.Snapshot.TrialsRun))
}

// histQuantile estimates quantile q, in seconds, of a power-of-two
// latency histogram by linear interpolation inside the bucket that holds
// it (bucket i spans [2^(i-1), 2^i) ns).
func histQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Buckets {
		if c == 0 || cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = telemetry.BucketBound(i - 1)
		}
		return lo + (telemetry.BucketBound(i)-lo)*(rank-cum)/float64(c)
	}
	return 0
}

// histTail is tail for a histogram: the highest quantile with at least
// ten observations above it.
func histTail(h telemetry.HistogramSnapshot) (seconds, pct float64) {
	if h.Count <= 10 {
		return histQuantile(h, 1), 100
	}
	q := float64(h.Count-10) / float64(h.Count)
	return histQuantile(h, q), 100 * q
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a measurement that did not happen).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
