package workload

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/leader"
	"repro/internal/radio"
)

// leaderWorkload measures single-hop leader election over
// internal/leader. The protocol follows the matrix's model axis:
// randomized election uses ElectCD under CD/CD*/LOCAL and ElectNoCD
// (with trace-based success detection, per the paper's external
// termination condition) under No-CD; proto=det forces the
// deterministic binary-search election. The algorithm axis is ignored.
//
// The election protocols are single-hop constructions: on a clique every
// device shares one channel and the success rate matches the paper's
// analysis; on multi-hop topologies the measured success rate shows how
// the schedule degrades, which is the point of sweeping it.
type leaderWorkload struct{}

func (leaderWorkload) Name() string { return "leader" }
func (leaderWorkload) Doc() string {
	return "single-hop leader election; measures success rate, election slot, agreement and energy (algorithm axis ignored)"
}

func (leaderWorkload) Params() []Param {
	return []Param{
		{Name: "proto", Default: "rand", Doc: "election family: rand (model-matched randomized) or det (deterministic CD); grid"},
		{Name: "maxslots", Default: "512", Doc: "attempt bound of the randomized CD election (grid)"},
		{Name: "reps", Default: "8", Doc: "per-exponent repetitions of the No-CD schedule (grid)"},
	}
}

type leaderPoint struct {
	proto    string
	maxSlots int
	reps     int
}

func (w leaderWorkload) Expand(raw map[string]string) ([]Point, error) {
	if err := checkKeys(w.Name(), raw, w.Params()); err != nil {
		return nil, err
	}
	var protos []string
	for _, tok := range strings.Split(get(raw, "proto", "rand"), ",") {
		tok = strings.ToLower(strings.TrimSpace(tok))
		switch tok {
		case "rand", "det":
			protos = append(protos, tok)
		case "":
		default:
			return nil, fmt.Errorf("workload leader: unknown proto %q (valid: rand, det)", tok)
		}
	}
	if len(protos) == 0 {
		return nil, fmt.Errorf("workload leader: empty proto list")
	}
	maxSlots, err := intGrid(w.Name(), "maxslots", get(raw, "maxslots", "512"))
	if err != nil {
		return nil, err
	}
	reps, err := intGrid(w.Name(), "reps", get(raw, "reps", "8"))
	if err != nil {
		return nil, err
	}
	_, gridSlots := raw["maxslots"]
	_, gridReps := raw["reps"]
	var pts []Point
	for _, proto := range protos {
		for _, ms := range maxSlots {
			if ms < 1 {
				return nil, fmt.Errorf("workload leader: maxslots must be >= 1, got %d", ms)
			}
			for _, rp := range reps {
				if rp < 1 {
					return nil, fmt.Errorf("workload leader: reps must be >= 1, got %d", rp)
				}
				label := "proto=" + proto
				if gridSlots {
					label += fmt.Sprintf(",maxslots=%d", ms)
				}
				if gridReps {
					label += fmt.Sprintf(",reps=%d", rp)
				}
				pts = append(pts, Point{Label: label, Value: leaderPoint{proto: proto, maxSlots: ms, reps: rp}})
			}
		}
	}
	return pts, nil
}

// ExtraMeasures declares the election columns CI-ineligible: both are
// emitted only when an election succeeds, so their sample counts track
// the success count, not the cell's trial count — a sequential CI rule
// keyed to trials would mis-size their intervals.
func (leaderWorkload) ExtraMeasures(Point) []MeasureInfo {
	return []MeasureInfo{
		{Name: "electSlot", CI: false, Doc: "slot of the successful election (successes only)"},
		{Name: "agree", CI: false, Doc: "fraction agreeing on the winner (successes only)"},
	}
}

func (leaderWorkload) Run(g *graph.Graph, pt Point, seed uint64, opt Options) (Measures, error) {
	lp := pt.Value.(leaderPoint)
	n := g.N()
	cfg := radio.Config{Graph: g, Model: opt.Model, Seed: seed, Sims: opt.Sims, Fault: opt.Fault}

	noCD := lp.proto == "rand" && opt.Model == radio.NoCD
	var txPerSlot []int // No-CD: transmitter count per slot, for external success detection
	var txDev []int     // No-CD: last transmitter seen per slot
	var proc func(v int, out *leader.Outcome) radio.Proc
	switch {
	case lp.proto == "det":
		cfg.IDSpace = n
		proc = func(_ int, out *leader.Outcome) radio.Proc { return leader.DetElectCDProc(1, true, out) }
	case noCD:
		slots := leader.NoCDSlots(n, lp.reps) + 2
		txPerSlot = make([]int, slots)
		txDev = make([]int, slots)
		cfg.Trace = func(ev radio.Event) {
			if ev.Kind == radio.EventTransmit && uint64(len(txPerSlot)) > ev.Slot {
				txPerSlot[ev.Slot]++
				txDev[ev.Slot] = ev.Dev
			}
		}
		proc = func(_ int, out *leader.Outcome) radio.Proc { return leader.ElectNoCDProc(1, true, n, lp.reps, out) }
	default:
		proc = func(_ int, out *leader.Outcome) radio.Proc { return leader.ElectCDProc(1, true, n, lp.maxSlots, out) }
	}

	res, outs, err := radio.Run(cfg, proc)
	if err != nil {
		return Measures{}, err
	}

	// Judge the election: a unique self-declared winner for the CD and
	// deterministic protocols, the first unique-transmitter slot for
	// No-CD (the paper's "a message is successfully sent" condition).
	winner, electSlot := -1, 0.0
	if noCD {
		for s, c := range txPerSlot {
			if c == 1 {
				winner, electSlot = txDev[s], float64(s)
				break
			}
		}
	} else {
		for v := range outs {
			if outs[v].IsLeader {
				if winner >= 0 { // two self-declared leaders: failed election
					winner = -1
					break
				}
				winner, electSlot = v, float64(outs[v].Slot)
			}
		}
	}
	m := Measures{
		Slots:         res.Slots,
		Events:        res.Events,
		MaxEnergy:     res.MaxEnergy(),
		TotalEnergy:   res.TotalEnergy(),
		Completed:     winner >= 0,
		FaultCrashes:  res.FaultCrashes,
		FaultSleeps:   res.FaultSleeps,
		FaultErasures: res.FaultErasures,
	}
	// electSlot/agree are properties of a successful election; failed
	// trials contribute no samples so the aggregates describe the
	// elections that happened (Completed already counts the failures).
	if winner >= 0 {
		agree := 0
		for v := range outs {
			if v == winner || outs[v].Leader == winner {
				agree++
			}
		}
		m.Extra = []Sample{
			{Name: "electSlot", X: electSlot},
			{Name: "agree", X: float64(agree) / float64(n)},
		}
		m.Informed = agree
	}
	return m, nil
}
