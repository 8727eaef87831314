// Command bench is the repository benchmark. It builds cmd/sweep and
// cmd/sweepd from source, runs one workload through them for a fixed
// time, checks every report against the library's own result, and prints
// the end-to-end metrics. With -trace 1 it instead times calls into each
// layer's public functions in-process and prints the per-layer metrics.
// Run it from the root of a checkout through the wrapper that builds it:
//
//	bash bench/run.sh --workload star-dtime --seed 1 --seconds 20 --trace 0
//
// Every metric prints by name with its unit, median, quartiles and sample
// count; the last line of standard output is one JSON object with the
// medians. See README.md for the workloads and what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the CLIs sees; BENCHMARK.json fixes
// a regression bound for each.
var endToEndMetrics = []metricDef{
	{"trials_per_s", "trials/s"},
	{"wall_s", "s"},
	{"cpu_s_per_ktrial", "s/ktrial"},
	{"setup_s", "s"},
	{"retained_heap_mb", "MB"},
	{"trial_ok_frac", "fraction"},
}

// perLayerMetrics come from the traced pass, one module at a time.
var perLayerMetrics = []metricDef{
	{"graph.build_ms", "ms"},
	{"graph.diameter_ms", "ms"},
	{"graph.diameter_share", "ratio"},
	{"core.trial_ms_p50", "ms"},
	{"core.trial_ms_tail", "ms"},
	{"core.allocs_per_trial", "count"},
	{"core.bytes_per_trial", "B"},
	{"core.batch16_speedup", "ratio"},
	{"radio.substrate_ns_per_action", "ns"},
	{"radio.slots_per_trial", "slots"},
	{"radio.events_per_trial", "count"},
	{"radio.max_energy_per_trial", "slots"},
	{"radio.host_ns_per_event", "ns"},
	{"protocol.self_ms_per_trial", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"sweep.trial_overhead_us", "us"},
	{"sweep.scaling_eff", "ratio"},
	{"experiment.batches", "count"},
	{"experiment.next_us_p50", "us"},
	{"experiment.admit_us_p50", "us"},
	{"experiment.admit_us_tail", "us"},
	{"experiment.journal_us_per_batch", "us"},
	{"experiment.fold_us_per_batch", "us"},
	{"experiment.journal_bytes_per_batch", "B"},
	{"experiment.commit_ratio", "ratio"},
	{"fabric.lease_rtt_ms_p50", "ms"},
	{"fabric.lease_rtt_ms_tail", "ms"},
	{"fabric.commit_ratio", "ratio"},
	{"fabric.overhead_frac", "ratio"},
	{"telemetry.overhead_frac", "ratio"},
}

// passConfig sizes one pass. The defaults are the benchmark's; the smoke
// test shrinks them.
type passConfig struct {
	seed uint64
	// seconds is how long the timed pass repeats CLI runs, and when the
	// traced pass's core.Broadcast loop stops.
	seconds float64
	// minRuns is the fewest CLI runs of the timed pass; setupCalls the
	// sweep.NewRunner calls behind setup_s.
	minRuns, setupCalls int
	// batchWidth is the seed count of the core.batch16 measurement,
	// minSamples the fewest core.Broadcast calls, minPairs the fewest
	// RunTrials/Broadcast pairs, and layerBudget the time spent on each
	// repeated-call layer measurement.
	batchWidth, minSamples, minPairs int
	layerBudget                      time.Duration
	// work holds scratch files; traceDir keeps trace.json and profiles.
	work, traceDir string
}

func defaultPass(seed uint64, seconds float64, work, traceDir string) passConfig {
	return passConfig{seed: seed, seconds: seconds, minRuns: 3, setupCalls: 200,
		batchWidth: 16, minSamples: 20, minPairs: 3, layerBudget: time.Second, work: work, traceDir: traceDir}
}

// passResult is one pass's outcome: per-metric samples (the reported
// value is their median), trial counts, and every failed check.
type passResult struct {
	values            map[string][]float64
	attempted, failed int
	problems          []string
	detail            map[string]any
	defs              []metricDef
	workload          string
	seed              uint64
}

func newPassResult(w workload, seed uint64, defs []metricDef) *passResult {
	return &passResult{values: map[string][]float64{}, detail: map[string]any{}, defs: defs,
		workload: w.name, seed: seed}
}

func (p *passResult) set(name string, values ...float64) { p.values[name] = values }

func (p *passResult) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// count records one checked report: all its trials are attempted, and
// they all fail if the report is wrong, else those that did not complete.
func (p *passResult) count(s reportSum, ok bool) {
	p.attempted += s.trials
	if ok {
		p.failed += s.trials - s.completed
	} else {
		p.failed += s.trials
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results reports every defined metric's median with its unit, and fails
// if one was not measured or is not a finite number.
func (p *passResult) results() (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, d := range p.defs {
		vs := p.values[d.name]
		if len(vs) == 0 {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		med := median(vs)
		if math.IsNaN(med) || math.IsInf(med, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, med)
		}
		out[d.name] = metricValue{med, d.unit}
	}
	return out, nil
}

// print writes the metric table, a detail line with the raw samples, and
// the result line, which is last.
func (p *passResult) print() error {
	metrics, err := p.results()
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d\n", p.workload, p.seed)
	fmt.Printf("%-36s %-9s %14s %14s %14s %6s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range p.defs {
		vs := p.values[d.name]
		q1, med, q3 := quartiles(vs)
		fmt.Printf("%-36s %-9s %14.6g %14.6g %14.6g %6d\n", d.name, d.unit, med, q1, q3, len(vs))
	}
	for _, pr := range p.problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", pr)
	}
	p.detail["workload"], p.detail["seed"], p.detail["samples"] = p.workload, p.seed, p.values
	p.detail["env"] = environment()
	detail, err := json.Marshal(map[string]any{"detail": p.detail})
	if err != nil {
		return err
	}
	fmt.Println(string(detail))
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(p.problems) == 0, p.attempted, p.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{"cpu": cpu, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()}
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile by
// Python's statistics.quantiles default (exclusive) method, the one the
// benchmark's spread check uses. One value is all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

// tail returns the highest order statistic with at least ten samples
// above it, and its percentile; with ten or fewer samples, the maximum.
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func main() {
	name := flag.String("workload", "", "workload to run: star-dtime, gnp-iterclust, adaptive-ckpt or fabric-2w")
	seed := flag.Uint64("seed", 1, "master seed of every run")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed end-to-end pass")
	flag.Parse()
	ok, err := run(*name, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run builds the CLIs of the checkout in the working directory, runs one
// pass and prints it. ok is false when a check failed.
func run(name string, seed uint64, seconds float64, trace int) (ok bool, err error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return false, err
	}
	if trace != 0 && trace != 1 {
		return false, fmt.Errorf("-trace is 0 or 1, got %d", trace)
	}
	const out = ".bench_build"
	if err := os.MkdirAll(out, 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	// A fixed output directory lets go build skip relinking binaries that
	// are already up to date.
	b, err := buildCLIs(".", filepath.Join(out, "bin"))
	if err != nil {
		return false, err
	}
	pc := defaultPass(seed, seconds, work, filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d", w.name, seed)))
	var p *passResult
	if trace == 1 {
		p, err = tracePass(w, b, pc)
	} else {
		p, err = timedPass(w, b, pc)
	}
	if err != nil {
		return false, err
	}
	if err := p.print(); err != nil {
		return false, err
	}
	return len(p.problems) == 0, nil
}
