package core

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/cdmerge"
	"repro/internal/coloring"
	"repro/internal/detcast"
	"repro/internal/dtime"
	"repro/internal/graph"
	"repro/internal/iterclust"
	"repro/internal/pathcast"
	"repro/internal/radio"
)

// plan is one Broadcast call's seed-independent preparation: parameter
// validation and protocol constants, built once. A seed enters a trial
// solely through radio.Config.Seed, so one plan serves any number of
// trials — the hoisting BroadcastBatch amortizes.
type plan interface {
	run(seed uint64) (*Result, error)
}

// planOf runs an algorithm whose devices report an R. Each trial builds
// device v with proc and reads its (Informed, Msg) back through view.
type planOf[R any] struct {
	algo    Algorithm
	rcfg    radio.Config // wants only its Seed
	sources []int
	msg     any
	srcIdx  map[int]int // vertex -> index into sources; nil for k = 1
	proc    func(v int, isSource bool, msg any, out *R) radio.Proc
	view    func(*R) (informed bool, msg any)
}

// newPlan prepares a k-source broadcast; a single source is the k = 1
// case. For k >= 2 the sources' tagged copies race through the network,
// each vertex keeping whichever arrives first. The slot schedules are
// data-independent, so the time and energy bounds carry over; the new
// measurement is the per-source informed fronts (Result.InformedBy).
func newPlan[R any](algo Algorithm, rcfg radio.Config, sources []int, msg any,
	proc func(v int, isSource bool, msg any, out *R) radio.Proc,
	view func(*R) (bool, any)) plan {
	pl := &planOf[R]{algo: algo, rcfg: rcfg, sources: sources, msg: msg, proc: proc, view: view}
	if len(sources) > 1 {
		pl.srcIdx = make(map[int]int, len(sources))
		for i, s := range sources {
			pl.srcIdx[s] = i
		}
	}
	return pl
}

// run executes one seeded trial on a fresh device population.
func (pl *planOf[R]) run(seed uint64) (*Result, error) {
	rcfg := pl.rcfg
	rcfg.Seed = seed
	rr, outs, err := radio.Run(rcfg, func(v int, out *R) radio.Proc {
		isSrc, msg := pl.start(v)
		return pl.proc(v, isSrc, msg, out)
	})
	if err != nil {
		return nil, err
	}
	n := len(outs)
	res := &Result{
		Algorithm:     pl.algo,
		Model:         rcfg.Model,
		Slots:         rr.Slots,
		Events:        rr.Events,
		Energy:        append([]int(nil), rr.Energy...),
		Informed:      make([]bool, n),
		Sources:       append([]int(nil), pl.sources...),
		InformedBy:    make([]int, n),
		FaultCrashes:  rr.FaultCrashes,
		FaultSleeps:   rr.FaultSleeps,
		FaultErasures: rr.FaultErasures,
	}
	for v := range outs {
		informed, msg := pl.view(&outs[v])
		res.Informed[v] = informed
		// With one source, an informed vertex keeps InformedBy 0.
		switch {
		case !informed:
			res.InformedBy[v] = -1
		case pl.srcIdx != nil:
			res.InformedBy[v] = sourceOf(msg)
		}
	}
	return res, nil
}

// start is device v's part at slot 0. With one source every device is
// handed the untagged message and only the source holds it; with k >= 2
// each source holds its own tagged copy and the others hold nothing.
func (pl *planOf[R]) start(v int) (isSource bool, msg any) {
	if pl.srcIdx == nil {
		return v == pl.sources[0], pl.msg
	}
	if i, ok := pl.srcIdx[v]; ok {
		return true, sourceTag{Src: i, Body: pl.msg}
	}
	return false, nil
}

// sourceTag wraps the broadcast payload of one source so that receivers
// can attribute the copy they hold to the source it originated from. The
// protocols forward payloads opaquely, so the tag survives every relay.
type sourceTag struct {
	Src  int // index into the sources slice
	Body any
}

// sourceOf recovers the source index from a device's final message, or -1.
func sourceOf(msg any) int {
	if t, ok := msg.(sourceTag); ok {
		return t.Src
	}
	return -1
}

// simulated is one bounded-degree device's report: the inner LOCAL
// broadcast's and the coloring's.
type simulated struct {
	dev iterclust.DeviceResult
	col coloring.ColoringResult
}

// fixedModel is the one model an algorithm runs whatever the call's
// model: cdmerge is a CD algorithm, path a LOCAL one, and bounded-degree
// simulates LOCAL on a physical No-CD network.
func fixedModel(algo Algorithm) (radio.Model, bool) {
	switch algo {
	case AlgoCDMerge:
		return radio.CD, true
	case AlgoPath:
		return radio.Local, true
	case AlgoBoundedDegree:
		return radio.NoCD, true
	}
	return 0, false
}

// buildPlan states each algorithm's protocol constants and radio.Config
// once, for any number of sources. Path and the deterministic
// constructions schedule a single source and reject k >= 2. An
// algorithm tied to one model runs it, and rejects a different model
// set with WithModel.
func buildPlan(g *graph.Graph, sources []int, algo Algorithm, cfg config) (plan, error) {
	n, delta := g.N(), g.MaxDegree()
	if len(sources) > 1 && (algo == AlgoPath || algo == AlgoDeterministic) {
		return nil, fmt.Errorf("core: algorithm %v does not support multiple sources", algo)
	}
	rcfg := radio.Config{Graph: g, Model: cfg.model, Trace: cfg.trace, Sims: cfg.sims, Fault: cfg.fault}
	if m, ok := fixedModel(algo); ok {
		if cfg.modelSet && cfg.model != m {
			return nil, fmt.Errorf("core: algorithm %v runs the %v model, not %v", algo, m, cfg.model)
		}
		rcfg.Model = m
	}
	switch algo {
	case AlgoIterClust, AlgoTheorem12:
		var p iterclust.Params
		if algo == AlgoTheorem12 {
			if cfg.model != radio.CD {
				return nil, fmt.Errorf("core: Theorem 12 requires the CD model")
			}
			p = iterclust.NewTheorem12Params(n, delta, cfg.eps)
		} else {
			p = iterclust.NewParams(cfg.model, n, delta)
		}
		return newPlan(algo, rcfg, sources, cfg.msg,
			func(_ int, src bool, m any, o *iterclust.DeviceResult) radio.Proc {
				return iterclust.Proc(p, src, m, o)
			},
			func(o *iterclust.DeviceResult) (bool, any) { return o.Informed, o.Msg }), nil

	case AlgoDiamTime:
		d, err := g.Diameter()
		if err != nil {
			return nil, err
		}
		p, err := dtime.NewParams(cfg.model, n, delta, d, cfg.eps)
		if err != nil {
			return nil, err
		}
		if cfg.lean {
			p = p.Tune(n, 10, 6, 10, 0)
		}
		rcfg.MaxSlots = 1 << 62
		return newPlan(algo, rcfg, sources, cfg.msg,
			func(_ int, src bool, m any, o *dtime.DeviceResult) radio.Proc {
				return dtime.Proc(p, src, m, o)
			},
			func(o *dtime.DeviceResult) (bool, any) { return o.Informed, o.Msg }), nil

	case AlgoCDMerge:
		p, err := cdmerge.NewParams(n, delta, cfg.xi)
		if err != nil {
			return nil, err
		}
		if cfg.lean {
			p = p.Tune(10, 3, n)
		}
		rcfg.MaxSlots = 1 << 62
		return newPlan(algo, rcfg, sources, cfg.msg,
			func(_ int, src bool, m any, o *cdmerge.DeviceResult) radio.Proc {
				return cdmerge.Proc(p, src, m, o)
			},
			func(o *cdmerge.DeviceResult) (bool, any) { return o.Informed, o.Msg }), nil

	case AlgoPath:
		if err := pathcast.Validate(g, sources[0]); err != nil {
			return nil, err
		}
		return newPlan(algo, rcfg, sources, cfg.msg,
			func(v int, src bool, m any, o *pathcast.DeviceResult) radio.Proc {
				return pathcast.Proc(pathcast.Params{}, g.Neighbors(v), src, m, o)
			},
			func(o *pathcast.DeviceResult) (bool, any) { return o.Informed, o.Body }), nil

	case AlgoBoundedDegree:
		cp := coloring.NewParams(n, delta)
		ip := iterclust.NewParams(radio.Local, n, delta)
		rcfg.MaxSlots = 1 << 62
		return newPlan(algo, rcfg, sources, cfg.msg,
			func(_ int, src bool, m any, o *simulated) radio.Proc {
				return coloring.SimulateProc(1, cp, iterclust.Proc(ip, src, m, &o.dev), &o.col)
			},
			func(o *simulated) (bool, any) { return o.dev.Informed, o.dev.Msg }), nil

	case AlgoDeterministic:
		if cfg.model == radio.NoCD {
			return nil, fmt.Errorf("core: no deterministic No-CD algorithm exists (the Theorem 2 lower bound is Omega(Delta))")
		}
		p, err := detcast.NewParams(cfg.model, n, n)
		if err != nil {
			return nil, err
		}
		rcfg.IDSpace, rcfg.MaxSlots = n, 1<<62
		return newPlan(algo, rcfg, sources, cfg.msg,
			func(_ int, src bool, m any, o *detcast.DeviceResult) radio.Proc {
				return detcast.Proc(p, src, m, o)
			},
			func(o *detcast.DeviceResult) (bool, any) { return o.Informed, o.Msg }), nil

	case AlgoBaselineDecay:
		d, err := g.Diameter()
		if err != nil {
			return nil, err
		}
		p := baseline.NewParams(n, delta, d)
		return newPlan(algo, rcfg, sources, cfg.msg,
			func(_ int, src bool, m any, o *baseline.DeviceResult) radio.Proc {
				return baseline.Proc(p, src, m, o)
			},
			func(o *baseline.DeviceResult) (bool, any) { return o.Informed, o.Msg }), nil

	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", algo)
	}
}
