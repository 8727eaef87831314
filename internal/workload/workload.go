// Package workload is the registry of pluggable measurement scenarios
// run by the sweep engine. A workload names one experiment family —
// single-source broadcast, k-source broadcast, single-hop leader
// election, the Theorem 16 time/energy tradeoff — and turns one matrix
// cell (graph x model x algorithm x parameter point) plus a trial seed
// into a Measures record.
//
// The contract mirrors the sweep engine's reproducible-seed rule: Run
// must be a pure function of its arguments (all randomness drawn from
// the trial seed through internal/rng), so aggregates stay bit-identical
// for any worker count. Parameter grids are expanded up front by Expand
// into an ordered list of Points; the point's position in that list is
// part of the matrix position the engine derives trial seeds from.
//
// Built-ins (registered at package init):
//
//   - broadcast: single-source broadcast, the engine's historical
//     behavior (byte-identical default output);
//   - msrc: k-source broadcast with per-source informed-front columns;
//   - leader: single-hop leader election (randomized CD / No-CD by
//     model, deterministic by parameter) measuring success rate,
//     election slot and energy;
//   - tradeoff: the Theorem 16 beta dial over internal/dtime, one point
//     per beta (or eps) grid value.
package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/radio"
)

// Options carries the per-trial inputs shared by every workload: the
// matrix cell's model and algorithm axes plus the spec-level knobs.
type Options struct {
	Model     radio.Model
	Algorithm core.Algorithm
	// Source is the primary source vertex (workloads that place several
	// sources derive the rest deterministically).
	Source int
	// Lean applies experiment-scale protocol constants where supported.
	Lean bool
	// Sims optionally reuses a per-goroutine simulator cache
	// (radio.SimCache) across the trials a worker runs on one topology.
	// Purely an allocation optimization: measurements are identical with
	// or without it. Must not be shared between goroutines.
	Sims *radio.SimCache
	// Fault optionally injects deterministic faults into the trial's
	// engine runs (see internal/fault). An inactive spec changes nothing;
	// an active one makes broadcast-family workloads emit the
	// graceful-degradation columns of FaultMeasures, and every workload
	// report the injected-fault counters.
	Fault fault.Spec
}

// Sample is one named scalar column of a trial's measurement.
type Sample struct {
	Name string
	X    float64
}

// Measures is the outcome of one seeded trial. The four core columns are
// shared by every workload; Extra carries workload-specific columns,
// whose names must be identical for every trial of the same Point.
type Measures struct {
	Slots       uint64
	Events      uint64
	MaxEnergy   int
	TotalEnergy int
	// Completed is the workload's own success criterion (all informed,
	// leader agreed, ...).
	Completed bool
	// Informed counts the devices holding the workload's payload at the
	// end of the trial (broadcast-family workloads), or the devices
	// agreeing on the outcome (leader election; 0 on a failed election).
	// It is the per-trial progress column of the sweep engine's raw
	// export.
	Informed int
	Extra    []Sample
	// FaultCrashes/FaultSleeps/FaultErasures count the faults the engine
	// injected during the trial (internal/fault); all zero when
	// Options.Fault is inactive. They are counters for telemetry and the
	// run manifest, not measure columns.
	FaultCrashes  int
	FaultSleeps   int
	FaultErasures int
}

// MeasureInfo describes one measure column to adaptive controllers
// (internal/experiment): its name and whether sequential CI-width
// stopping may target it.
type MeasureInfo struct {
	// Name is the column name (a core column or an Extra sample name).
	Name string
	// CI reports whether the column is a sound target for sequential
	// confidence-interval stopping: present on every successful trial of
	// the point, so the column's sample count tracks the cell's trial
	// count. Conditional columns (leader's election measures, present
	// only when an election succeeds) and constant parameter echoes
	// (tradeoff's beta) are ineligible.
	CI bool
	// Doc is a one-line description.
	Doc string
}

// CoreMeasures lists the four columns every workload reports, all
// CI-eligible.
func CoreMeasures() []MeasureInfo {
	return []MeasureInfo{
		{Name: "slots", CI: true, Doc: "largest slot any device acted in"},
		{Name: "maxEnergy", CI: true, Doc: "max per-device awake slots (the paper's energy)"},
		{Name: "totalEnergy", CI: true, Doc: "summed awake slots over all devices"},
		{Name: "events", CI: true, Doc: "simulator actions processed"},
	}
}

// ExtraMeasurer is the optional interface a workload implements to
// declare the CI eligibility of its Extra columns at a given point.
// Workloads without it contribute no extra columns to CIMeasures.
type ExtraMeasurer interface {
	ExtraMeasures(pt Point) []MeasureInfo
}

// CIMeasures returns the measure columns of w at pt: the four core
// columns first, then the workload's declared extras in column order.
func CIMeasures(w Workload, pt Point) []MeasureInfo {
	out := CoreMeasures()
	if em, ok := w.(ExtraMeasurer); ok {
		out = append(out, em.ExtraMeasures(pt)...)
	}
	return out
}

// FaultMeasures lists the graceful-degradation columns the
// broadcast-family workloads append to every trial when Options.Fault is
// active, all CI-eligible (present on every successful trial), so
// adaptive stopping can target e.g. the success rate of a faulted cell.
func FaultMeasures() []MeasureInfo {
	return []MeasureInfo{
		{Name: "success", CI: true, Doc: "1 when the trial completed under faults, else 0"},
		{Name: "informedFrac", CI: true, Doc: "fraction of devices informed at the end"},
		{Name: "energyOverhead", CI: true, Doc: "total energy minus the same-seed fault-free twin's"},
		{Name: "wastedAwake", CI: true, Doc: "awake listen slots whose delivery a lossy slot erased"},
	}
}

// FaultExtraMeasurer is the optional interface a workload implements to
// declare the extra columns it appends when Options.Fault is active.
type FaultExtraMeasurer interface {
	FaultExtraMeasures(pt Point) []MeasureInfo
}

// CIMeasuresWith returns the measure columns of w at pt for a cell whose
// fault spec is fs: CIMeasures, then the workload's declared fault
// columns when fs is active. With an inactive spec it is exactly
// CIMeasures — fault-free cells gain no columns.
func CIMeasuresWith(w Workload, pt Point, fs fault.Spec) []MeasureInfo {
	out := CIMeasures(w, pt)
	if fs.Active() {
		if fm, ok := w.(FaultExtraMeasurer); ok {
			out = append(out, fm.FaultExtraMeasures(pt)...)
		}
	}
	return out
}

// Param describes one entry of a workload's parameter schema.
type Param struct {
	// Name is the key accepted by Expand.
	Name string
	// Default is the value used when the key is absent ("" = unset).
	Default string
	// Doc is a one-line description shown by CLI help and examples.
	Doc string
}

// Point is one concrete parameter setting from an expanded grid.
type Point struct {
	// Label renders the setting for reports, e.g. "beta=0.125". The
	// default point of a parameterless expansion has an empty label.
	Label string
	// Value is the owning workload's parsed parameter set; only the
	// workload that produced the point reads it.
	Value any
}

// Workload is one pluggable scenario.
type Workload interface {
	// Name is the registry key.
	Name() string
	// Doc is a one-line description.
	Doc() string
	// Params lists the parameter schema.
	Params() []Param
	// Expand validates raw key=value parameters against the schema and
	// expands grid values (comma-separated lists) into concrete points,
	// in a deterministic order. A nil or empty map yields the single
	// default point.
	Expand(raw map[string]string) ([]Point, error)
	// Run executes one seeded trial on g at the given point.
	Run(g *graph.Graph, pt Point, seed uint64, opt Options) (Measures, error)
}

var registry = map[string]Workload{}

// Register adds a workload to the registry. It panics on duplicate or
// empty names — registration is an init-time wiring error, not a runtime
// condition.
func Register(w Workload) {
	name := w.Name()
	if name == "" {
		panic("workload: empty name")
	}
	if _, dup := registry[name]; dup {
		panic("workload: duplicate registration of " + name)
	}
	registry[name] = w
}

// Names lists the registered workloads in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup resolves a workload by name ("" means the default, broadcast).
// The error lists the valid names.
func Lookup(name string) (Workload, error) {
	if name == "" {
		name = "broadcast"
	}
	w, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
	return w, nil
}

// checkKeys rejects parameters outside the schema, listing the valid
// keys in the error.
func checkKeys(name string, raw map[string]string, schema []Param) error {
	for key := range raw {
		ok := false
		for _, p := range schema {
			if key == p.Name {
				ok = true
				break
			}
		}
		if !ok {
			valid := make([]string, len(schema))
			for i, p := range schema {
				valid[i] = p.Name
			}
			sort.Strings(valid)
			return fmt.Errorf("workload %s: unknown parameter %q (valid: %s)",
				name, key, strings.Join(valid, ", "))
		}
	}
	return nil
}

// get returns raw[key] or the schema default.
func get(raw map[string]string, key, def string) string {
	if v, ok := raw[key]; ok {
		return v
	}
	return def
}

// floatGrid parses a comma-separated list of floats.
func floatGrid(name, key, s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		x, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("workload %s: bad %s value %q", name, key, tok)
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload %s: empty %s list %q", name, key, s)
	}
	return out, nil
}

// intGrid parses a comma-separated list of ints.
func intGrid(name, key, s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		x, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("workload %s: bad %s value %q", name, key, tok)
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload %s: empty %s list %q", name, key, s)
	}
	return out, nil
}

func init() {
	Register(broadcastWorkload{})
	Register(msrcWorkload{})
	Register(leaderWorkload{})
	Register(tradeoffWorkload{})
}
