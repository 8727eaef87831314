// Package core is the library's public façade: one Broadcast entry point
// covering every algorithm in the paper, selected and parameterized with
// functional options.
//
// The zero-configuration call
//
//	res, err := core.Broadcast(g, source)
//
// runs the paper's best general algorithm for the default model (No-CD,
// randomized) and reports slot count and per-device energy — the paper's
// two complexity measures.
package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/radio"
)

// Algorithm identifies a Broadcast algorithm from the paper.
type Algorithm int

// The implemented algorithms.
const (
	// AlgoAuto picks the paper's best algorithm for the chosen model and
	// topology.
	AlgoAuto Algorithm = iota
	// AlgoIterClust is the Theorem 11 iterative clustering (LOCAL, CD,
	// No-CD).
	AlgoIterClust
	// AlgoTheorem12 is the CD energy-improved variant of Theorem 12.
	AlgoTheorem12
	// AlgoDiamTime is the Theorem 16 O(D^{1+eps})-time algorithm.
	AlgoDiamTime
	// AlgoCDMerge is the Theorem 20 CD algorithm (near-optimal energy).
	AlgoCDMerge
	// AlgoPath is the Section 8 path algorithm (Theorem 21).
	AlgoPath
	// AlgoBoundedDegree is Corollary 13: the LOCAL algorithm through the
	// Theorem 3 simulation on a physical No-CD network.
	AlgoBoundedDegree
	// AlgoDeterministic selects Appendix A (Theorem 25 for LOCAL,
	// Theorem 27 for CD).
	AlgoDeterministic
	// AlgoBaselineDecay is the classical BGI decay broadcast comparator.
	AlgoBaselineDecay
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoIterClust:
		return "iterclust"
	case AlgoTheorem12:
		return "theorem12"
	case AlgoDiamTime:
		return "dtime"
	case AlgoCDMerge:
		return "cdmerge"
	case AlgoPath:
		return "path"
	case AlgoBoundedDegree:
		return "bounded-degree"
	case AlgoDeterministic:
		return "deterministic"
	case AlgoBaselineDecay:
		return "baseline-decay"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// config collects the options.
type config struct {
	model    radio.Model
	algo     Algorithm
	seed     uint64
	msg      any
	eps      float64
	xi       float64
	modelSet bool // WithModel was used: an algorithm tied to one model checks it
	epsSet   bool // WithEpsilon was used: validate the value
	xiSet    bool // WithXi was used: validate the value
	trace    func(radio.Event)
	lean     bool
	sources  []int
	sims     *radio.SimCache
	fault    fault.Spec
}

// Option configures Broadcast.
type Option func(*config)

// WithModel selects the collision model (default No-CD). cdmerge, path
// and bounded-degree each run one model (CD, LOCAL and No-CD); Broadcast
// rejects any other model set for them instead of silently running its
// own.
func WithModel(m radio.Model) Option {
	return func(c *config) { c.model, c.modelSet = m, true }
}

// WithAlgorithm forces a specific algorithm (default AlgoAuto).
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.algo = a } }

// WithSeed sets the root random seed (default 1).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithMessage sets the broadcast payload (default the string "m").
func WithMessage(msg any) Option { return func(c *config) { c.msg = msg } }

// WithEpsilon sets the Theorem 12/16 time/energy tradeoff parameter.
// Valid values lie in (0, 1]; Broadcast rejects anything else instead
// of silently substituting a default.
func WithEpsilon(eps float64) Option {
	return func(c *config) { c.eps, c.epsSet = eps, true }
}

// WithXi sets the Theorem 20 time/energy tradeoff parameter. Valid
// values lie in (0, 1]; Broadcast rejects anything else instead of
// silently substituting a default.
func WithXi(xi float64) Option {
	return func(c *config) { c.xi, c.xiSet = xi, true }
}

// WithTrace attaches a slot-level event tracer: f receives every
// transmit and listen event of the run (radio.Config.Trace), for every
// algorithm and any number of sources. Tracing changes no Result field.
// BroadcastBatch rejects it.
func WithTrace(f func(radio.Event)) Option { return func(c *config) { c.trace = f } }

// WithLeanScale applies experiment-scale protocol constants to the heavy
// algorithms (fewer repetitions, identical protocol structure) — used by
// benches and examples on small graphs.
func WithLeanScale() Option { return func(c *config) { c.lean = true } }

// WithSimCache reuses simulators from a per-goroutine cache
// (radio.SimCache) across repeated Broadcast calls on one topology —
// the Monte-Carlo hot path. Purely an allocation optimization:
// measurements and determinism are unaffected. The cache must not be
// shared between goroutines; internal/sweep keeps one per worker.
func WithSimCache(c *radio.SimCache) Option { return func(cfg *config) { cfg.sims = c } }

// WithSources replaces the positional source with a set of broadcasting
// vertices (k-source broadcast). Each source starts the protocol holding
// its own tagged copy of the message; Result.InformedBy reports, per
// vertex, which source's copy arrived first. With zero or one source the
// call is equivalent to the plain positional form. Algorithms whose
// schedule is inherently single-source (path, and the LOCAL/CD
// deterministic constructions) reject len(sources) > 1.
func WithSources(sources ...int) Option {
	return func(c *config) { c.sources = append([]int(nil), sources...) }
}

// WithFault injects deterministic faults — crash-stop devices, forced
// sleep windows, or lossy slots — at the given spec's rate. Fault
// decisions come from a positional hash stream independent of every
// protocol coin flip, so an inactive spec (the zero value, or rate 0)
// leaves the run byte-identical to an unfaulted one. See internal/fault
// for the determinism contract.
func WithFault(s fault.Spec) Option { return func(c *config) { c.fault = s } }

// Result reports one Broadcast run.
type Result struct {
	// Algorithm is the algorithm actually used.
	Algorithm Algorithm
	// Model is the collision model.
	Model radio.Model
	// Slots is the number of time slots used (the paper's time measure).
	Slots uint64
	// Events is the number of device actions the simulator processed —
	// the wall-cost of the run, as opposed to the virtual-time Slots.
	Events uint64
	// Energy is the per-device awake-slot count (a full-duplex
	// transmit+listen slot costs 1, per the paper's energy measure).
	Energy []int
	// Informed marks devices holding the message at the end.
	Informed []bool
	// Sources lists the broadcasting vertices (length 1 unless
	// WithSources was used).
	Sources []int
	// InformedBy[v] is the index into Sources of the source whose copy of
	// the message reached v first, or -1 for uninformed vertices. In a
	// single-source run every informed vertex reports 0.
	InformedBy []int
	// FaultCrashes, FaultSleeps and FaultErasures count the faults
	// WithFault injected (all zero when the spec is inactive).
	FaultCrashes  int
	FaultSleeps   int
	FaultErasures int
}

// MaxEnergy is the paper's energy complexity: max over devices.
func (r *Result) MaxEnergy() int {
	m := 0
	for _, e := range r.Energy {
		if e > m {
			m = e
		}
	}
	return m
}

// TotalEnergy sums all devices' energy.
func (r *Result) TotalEnergy() int {
	t := 0
	for _, e := range r.Energy {
		t += e
	}
	return t
}

// AllInformed reports whether the broadcast completed.
func (r *Result) AllInformed() bool {
	for _, ok := range r.Informed {
		if !ok {
			return false
		}
	}
	return true
}

// Fronts returns the per-source informed fronts: Fronts()[i] counts the
// vertices whose message copy originated at Sources[i] (sources count
// themselves). The fronts partition the informed vertex set.
func (r *Result) Fronts() []int {
	fronts := make([]int, len(r.Sources))
	for _, src := range r.InformedBy {
		if src >= 0 && src < len(fronts) {
			fronts[src]++
		}
	}
	return fronts
}

// IsPath reports whether g is a simple path (the Section 8 special case).
func IsPath(g *graph.Graph) bool {
	if g.N() <= 1 {
		return g.N() == 1
	}
	ends := 0
	for v := 0; v < g.N(); v++ {
		switch g.Degree(v) {
		case 1:
			ends++
		case 2:
		default:
			return false
		}
	}
	return ends == 2 && g.M() == g.N()-1 && g.IsConnected()
}

// resolveCall validates the graph, options and source set, and resolves
// AlgoAuto to a concrete algorithm — every check both Broadcast entry
// points share, factored so Broadcast and BroadcastBatch reject
// identical inputs with identical errors.
func resolveCall(g *graph.Graph, source int, opts []Option) (config, []int, Algorithm, error) {
	cfg := config{model: radio.NoCD, algo: AlgoAuto, seed: 1, msg: "m", eps: 0.5, xi: 0.5}
	if g == nil || g.N() == 0 {
		return cfg, nil, AlgoAuto, fmt.Errorf("core: nil or empty graph")
	}
	if !g.IsConnected() {
		return cfg, nil, AlgoAuto, fmt.Errorf("core: graph %q is disconnected", g.Name())
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.epsSet && (cfg.eps <= 0 || cfg.eps > 1) {
		return cfg, nil, AlgoAuto, fmt.Errorf("core: eps %v outside (0, 1]", cfg.eps)
	}
	if cfg.xiSet && (cfg.xi <= 0 || cfg.xi > 1) {
		return cfg, nil, AlgoAuto, fmt.Errorf("core: xi %v outside (0, 1]", cfg.xi)
	}
	if err := cfg.fault.Validate(); err != nil {
		return cfg, nil, AlgoAuto, fmt.Errorf("core: %w", err)
	}
	sources := cfg.sources
	if len(sources) == 0 {
		sources = []int{source}
	}
	seen := make(map[int]bool, len(sources))
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return cfg, nil, AlgoAuto, fmt.Errorf("core: source %d out of range [0,%d)", s, g.N())
		}
		if seen[s] {
			return cfg, nil, AlgoAuto, fmt.Errorf("core: duplicate source %d", s)
		}
		seen[s] = true
	}
	algo := cfg.algo
	if algo == AlgoAuto {
		switch {
		case cfg.model == radio.Local && IsPath(g) && len(sources) == 1:
			algo = AlgoPath
		case cfg.model == radio.CD:
			algo = AlgoTheorem12
		default:
			algo = AlgoIterClust
		}
	}
	return cfg, sources, algo, nil
}

// Broadcast runs the selected algorithm on g from source and returns the
// measured result. WithSources replaces the positional source with a set
// of broadcasting vertices.
func Broadcast(g *graph.Graph, source int, opts ...Option) (*Result, error) {
	cfg, sources, algo, err := resolveCall(g, source, opts)
	if err != nil {
		return nil, err
	}
	pl, err := buildPlan(g, sources, algo, cfg)
	if err != nil {
		return nil, err
	}
	return pl.run(cfg.seed)
}

// BroadcastBatch runs one trial per seed — same topology, same options,
// positional seeds — building the call's plan once and running each seed
// on it in turn. Result i and error i are exactly what Broadcast with
// WithSeed(seeds[i]) returns; the final error reports whole-call problems
// (bad graph, bad options, a plan error, WithTrace). Traced runs must use
// Broadcast, one trial per trace sink.
func BroadcastBatch(g *graph.Graph, source int, seeds []uint64, opts ...Option) ([]*Result, []error, error) {
	cfg, sources, algo, err := resolveCall(g, source, opts)
	if err != nil {
		return nil, nil, err
	}
	if cfg.trace != nil {
		return nil, nil, fmt.Errorf("core: BroadcastBatch does not support WithTrace")
	}
	pl, err := buildPlan(g, sources, algo, cfg)
	if err != nil {
		return nil, nil, err
	}
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	for i, seed := range seeds {
		results[i], errs[i] = pl.run(seed)
	}
	return results, errs, nil
}
