package workload

import (
	"fmt"

	"repro/internal/dtime"
	"repro/internal/graph"
	"repro/internal/radio"
)

// tradeoffWorkload sweeps Theorem 16's continuous time/energy dial: one
// grid point per beta (the partition rate) or eps (the paper's exponent,
// mapped to beta = log^{-1/eps} n), each trial running the Section 6
// algorithm via internal/dtime and emitting the achieved (slots, energy)
// pair. The algorithm axis is ignored; the model axis selects the
// SR-communication substrate. Faults are injected as in every workload;
// like leader, a faulted trial reports the fault counters but no
// fault-free twin columns.
type tradeoffWorkload struct{}

func (tradeoffWorkload) Name() string { return "tradeoff" }
func (tradeoffWorkload) Doc() string {
	return "Theorem 16 time/energy dial over a beta or eps grid (algorithm axis ignored)"
}

func (tradeoffWorkload) Params() []Param {
	return []Param{
		{Name: "beta", Default: "0.0625,0.125,0.25", Doc: "partition-rate grid in (0, 1/4]; mutually exclusive with eps"},
		{Name: "eps", Default: "", Doc: "eps grid in (0, 1]; beta = log^{-1/eps} n per Section 6.1"},
	}
}

type tradeoffPoint struct {
	useEps bool
	x      float64
}

func (w tradeoffWorkload) Expand(raw map[string]string) ([]Point, error) {
	if err := checkKeys(w.Name(), raw, w.Params()); err != nil {
		return nil, err
	}
	if _, hasBeta := raw["beta"]; hasBeta {
		if _, hasEps := raw["eps"]; hasEps {
			return nil, fmt.Errorf("workload tradeoff: set beta or eps, not both")
		}
	}
	if s := get(raw, "eps", ""); s != "" {
		epss, err := floatGrid(w.Name(), "eps", s)
		if err != nil {
			return nil, err
		}
		pts := make([]Point, len(epss))
		for i, eps := range epss {
			if eps <= 0 || eps > 1 {
				return nil, fmt.Errorf("workload tradeoff: eps %v outside (0, 1]", eps)
			}
			pts[i] = Point{Label: fmt.Sprintf("eps=%v", eps), Value: tradeoffPoint{useEps: true, x: eps}}
		}
		return pts, nil
	}
	betas, err := floatGrid(w.Name(), "beta", get(raw, "beta", "0.0625,0.125,0.25"))
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(betas))
	for i, beta := range betas {
		if beta <= 0 || beta > 0.25 {
			return nil, fmt.Errorf("workload tradeoff: beta %v outside (0, 1/4]", beta)
		}
		pts[i] = Point{Label: fmt.Sprintf("beta=%v", beta), Value: tradeoffPoint{x: beta}}
	}
	return pts, nil
}

// ExtraMeasures declares the beta echo CI-ineligible: it is the cell's
// constant parameter restated per trial, not a random measure.
func (tradeoffWorkload) ExtraMeasures(Point) []MeasureInfo {
	return []MeasureInfo{
		{Name: "beta", CI: false, Doc: "the cell's partition-rate parameter (constant echo)"},
	}
}

func (tradeoffWorkload) Run(g *graph.Graph, pt Point, seed uint64, opt Options) (Measures, error) {
	tp := pt.Value.(tradeoffPoint)
	d, err := g.Diameter()
	if err != nil {
		return Measures{}, err
	}
	var p dtime.Params
	if tp.useEps {
		p, err = dtime.NewParams(opt.Model, g.N(), g.MaxDegree(), d, tp.x)
	} else {
		p, err = dtime.NewParamsBeta(opt.Model, g.N(), g.MaxDegree(), d, tp.x)
	}
	if err != nil {
		return Measures{}, err
	}
	if opt.Lean {
		p = p.Tune(g.N(), 10, 6, 10, 0)
	}
	cfg := radio.Config{Graph: g, Model: p.SR.Model, Seed: seed, MaxSlots: 1 << 62, Sims: opt.Sims, Fault: opt.Fault}
	res, devs, err := radio.Run(cfg, func(v int, out *dtime.DeviceResult) radio.Proc {
		return dtime.Proc(p, v == opt.Source, "m", out)
	})
	if err != nil {
		return Measures{}, err
	}
	informed := 0
	for _, dres := range devs {
		if dres.Informed {
			informed++
		}
	}
	return Measures{
		Slots:         res.Slots,
		Events:        res.Events,
		MaxEnergy:     res.MaxEnergy(),
		TotalEnergy:   res.TotalEnergy(),
		Completed:     informed == len(devs),
		Informed:      informed,
		Extra:         []Sample{{Name: "beta", X: p.Beta}},
		FaultCrashes:  res.FaultCrashes,
		FaultSleeps:   res.FaultSleeps,
		FaultErasures: res.FaultErasures,
	}, nil
}
