package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
)

// broadcastWorkload is the engine's historical scenario: one seeded
// single-source core.Broadcast per trial. Its default point reproduces
// the pre-workload sweep output byte for byte.
type broadcastWorkload struct{}

func (broadcastWorkload) Name() string { return "broadcast" }
func (broadcastWorkload) Doc() string {
	return "single-source broadcast; measures slots, energy and completion"
}

func (broadcastWorkload) Params() []Param {
	return []Param{
		{Name: "eps", Default: "", Doc: "Theorem 12/16 eps knob (grid; unset = algorithm default)"},
		{Name: "xi", Default: "", Doc: "Theorem 20 xi knob (grid; unset = algorithm default)"},
	}
}

// broadcastPoint is the parsed parameter set: negative means unset.
type broadcastPoint struct {
	eps, xi float64
}

func (w broadcastWorkload) Expand(raw map[string]string) ([]Point, error) {
	if err := checkKeys(w.Name(), raw, w.Params()); err != nil {
		return nil, err
	}
	epss, xis := []float64{-1}, []float64{-1}
	var err error
	if s := get(raw, "eps", ""); s != "" {
		if epss, err = floatGrid(w.Name(), "eps", s); err != nil {
			return nil, err
		}
		for _, eps := range epss {
			if eps <= 0 || eps > 1 {
				return nil, fmt.Errorf("workload broadcast: eps %v outside (0, 1]", eps)
			}
		}
	}
	if s := get(raw, "xi", ""); s != "" {
		if xis, err = floatGrid(w.Name(), "xi", s); err != nil {
			return nil, err
		}
		for _, xi := range xis {
			if xi <= 0 || xi > 1 {
				return nil, fmt.Errorf("workload broadcast: xi %v outside (0, 1]", xi)
			}
		}
	}
	var pts []Point
	for _, eps := range epss {
		for _, xi := range xis {
			label := ""
			switch {
			case eps >= 0 && xi >= 0:
				label = fmt.Sprintf("eps=%v,xi=%v", eps, xi)
			case eps >= 0:
				label = fmt.Sprintf("eps=%v", eps)
			case xi >= 0:
				label = fmt.Sprintf("xi=%v", xi)
			}
			pts = append(pts, Point{Label: label, Value: broadcastPoint{eps: eps, xi: xi}})
		}
	}
	return pts, nil
}

// FaultExtraMeasures declares the graceful-degradation columns appended
// when the cell injects faults.
func (broadcastWorkload) FaultExtraMeasures(Point) []MeasureInfo { return FaultMeasures() }

// broadcastOptions builds the seed-independent option list of one
// broadcast point.
func broadcastOptions(bp broadcastPoint, opt Options) []core.Option {
	opts := []core.Option{
		core.WithModel(opt.Model),
		core.WithAlgorithm(opt.Algorithm),
		core.WithSimCache(opt.Sims),
	}
	if opt.Lean {
		opts = append(opts, core.WithLeanScale())
	}
	if bp.eps >= 0 {
		opts = append(opts, core.WithEpsilon(bp.eps))
	}
	if bp.xi >= 0 {
		opts = append(opts, core.WithXi(bp.xi))
	}
	return opts
}

// broadcastMeasures maps one result to the workload's measurement row.
func broadcastMeasures(res *core.Result) Measures {
	return Measures{
		Slots:         res.Slots,
		Events:        res.Events,
		MaxEnergy:     res.MaxEnergy(),
		TotalEnergy:   res.TotalEnergy(),
		Completed:     res.AllInformed(),
		Informed:      countInformed(res.Informed),
		FaultCrashes:  res.FaultCrashes,
		FaultSleeps:   res.FaultSleeps,
		FaultErasures: res.FaultErasures,
	}
}

func (broadcastWorkload) Run(g *graph.Graph, pt Point, seed uint64, opt Options) (Measures, error) {
	opts := append(broadcastOptions(pt.Value.(broadcastPoint), opt), core.WithSeed(seed))
	res, extras, err := runTrial(g, opt.Source, opts, opt.Fault)
	if err != nil {
		return Measures{}, err
	}
	m := broadcastMeasures(res)
	m.Extra = extras
	return m, nil
}

// runTrial runs one core.Broadcast trial. A faulted trial also runs its
// same-seed fault-free twin and returns the graceful-degradation
// columns computed from the pair; a fault-free trial returns none.
func runTrial(g *graph.Graph, source int, opts []core.Option, f fault.Spec) (*core.Result, []Sample, error) {
	if !f.Active() {
		res, err := core.Broadcast(g, source, opts...)
		return res, nil, err
	}
	res, err := core.Broadcast(g, source, append(opts, core.WithFault(f))...)
	if err != nil {
		return nil, nil, err
	}
	twin, err := core.Broadcast(g, source, opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("workload: fault-free twin: %w", err)
	}
	return res, faultExtras(g.N(), res, twin), nil
}

// faultExtras computes the graceful-degradation columns of a faulted
// trial from its result and its same-seed fault-free twin. The overhead
// column is signed: crash faults can finish cheaper than the twin.
func faultExtras(n int, res, twin *core.Result) []Sample {
	success := 0.0
	if res.AllInformed() {
		success = 1
	}
	return []Sample{
		{Name: "success", X: success},
		{Name: "informedFrac", X: float64(countInformed(res.Informed)) / float64(n)},
		{Name: "energyOverhead", X: float64(res.TotalEnergy() - twin.TotalEnergy())},
		{Name: "wastedAwake", X: float64(res.FaultErasures)},
	}
}

// countInformed counts the true entries of an informed vector.
func countInformed(informed []bool) int {
	n := 0
	for _, ok := range informed {
		if ok {
			n++
		}
	}
	return n
}

// msrcWorkload is k-source broadcast: k copies of the message race
// through the network and each trial reports the per-source informed
// fronts alongside the usual time/energy columns.
type msrcWorkload struct{}

func (msrcWorkload) Name() string { return "msrc" }
func (msrcWorkload) Doc() string {
	return "k-source broadcast; adds per-source informed-front columns"
}

func (msrcWorkload) Params() []Param {
	return []Param{
		{Name: "k", Default: "2", Doc: "number of sources (grid), placed at evenly spaced vertex ids"},
	}
}

type msrcPoint struct{ k int }

func (w msrcWorkload) Expand(raw map[string]string) ([]Point, error) {
	if err := checkKeys(w.Name(), raw, w.Params()); err != nil {
		return nil, err
	}
	ks, err := intGrid(w.Name(), "k", get(raw, "k", "2"))
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(ks))
	for i, k := range ks {
		if k < 1 {
			return nil, fmt.Errorf("workload msrc: k must be >= 1, got %d", k)
		}
		pts[i] = Point{Label: fmt.Sprintf("k=%d", k), Value: msrcPoint{k: k}}
	}
	return pts, nil
}

// ExtraMeasures declares the per-source front columns: one per source
// plus the min/max envelope, all present on every successful trial and
// therefore CI-eligible.
func (msrcWorkload) ExtraMeasures(pt Point) []MeasureInfo {
	mp := pt.Value.(msrcPoint)
	out := make([]MeasureInfo, 0, mp.k+2)
	for i := 0; i < mp.k; i++ {
		out = append(out, MeasureInfo{Name: fmt.Sprintf("front%d", i), CI: true,
			Doc: "vertices informed by source " + fmt.Sprint(i)})
	}
	out = append(out,
		MeasureInfo{Name: "frontMin", CI: true, Doc: "smallest per-source front"},
		MeasureInfo{Name: "frontMax", CI: true, Doc: "largest per-source front"})
	return out
}

// SpreadSources places k sources at evenly spaced vertex ids starting
// from `source`, wrapping modulo n. Deterministic in its inputs; k is
// capped at n.
func SpreadSources(n, k, source int) []int {
	if k > n {
		k = n
	}
	srcs := make([]int, k)
	for i := range srcs {
		srcs[i] = (source + i*n/k) % n
	}
	return srcs
}

// FaultExtraMeasures declares the graceful-degradation columns appended
// (after the front columns) when the cell injects faults.
func (msrcWorkload) FaultExtraMeasures(Point) []MeasureInfo { return FaultMeasures() }

// msrcOptions builds the seed-independent option list of one k-source
// point.
func msrcOptions(srcs []int, opt Options) []core.Option {
	opts := []core.Option{
		core.WithModel(opt.Model),
		core.WithAlgorithm(opt.Algorithm),
		core.WithSources(srcs...),
		core.WithSimCache(opt.Sims),
	}
	if opt.Lean {
		opts = append(opts, core.WithLeanScale())
	}
	return opts
}

func (msrcWorkload) Run(g *graph.Graph, pt Point, seed uint64, opt Options) (Measures, error) {
	mp := pt.Value.(msrcPoint)
	// Rejecting (rather than capping) k > n keeps the cell's "k=..."
	// label honest: the mismatch surfaces as per-trial errors in the
	// report instead of a smaller experiment wearing the wrong label.
	if mp.k > g.N() {
		return Measures{}, fmt.Errorf("workload msrc: k=%d exceeds n=%d of %s", mp.k, g.N(), g.Name())
	}
	srcs := SpreadSources(g.N(), mp.k, opt.Source)
	opts := append(msrcOptions(srcs, opt), core.WithSeed(seed))
	res, extras, err := runTrial(g, srcs[0], opts, opt.Fault)
	if err != nil {
		return Measures{}, err
	}
	m := msrcMeasures(g, res)
	m.Extra = append(m.Extra, extras...)
	return m, nil
}

// msrcMeasures maps one k-source result to its measurement row: the
// broadcast row plus the per-source front columns.
func msrcMeasures(g *graph.Graph, res *core.Result) Measures {
	fronts := res.Fronts()
	min, max := g.N(), 0
	extra := make([]Sample, 0, len(fronts)+2)
	for i, f := range fronts {
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
		extra = append(extra, Sample{Name: fmt.Sprintf("front%d", i), X: float64(f)})
	}
	extra = append(extra,
		Sample{Name: "frontMin", X: float64(min)},
		Sample{Name: "frontMax", X: float64(max)})
	m := broadcastMeasures(res)
	m.Extra = extra
	return m
}
