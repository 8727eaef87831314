package radio

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/rng"
)

// This file is the reference engine: the Action and Config contracts
// executed one slot at a time, with no calendar wheel, no far heap and
// no action runs. A run is expanded into its single slots, the next
// slot is the minimum over every device's pending slot, and every
// listener is resolved by scanning all of its neighbours. It is slow
// and short on purpose, so that it can serve as the oracle the
// Simulator is checked against.

// refDev is one device of the reference engine.
type refDev struct {
	proc       Proc
	env        Env
	kind       ActionKind // the pending action; ActHalt once halted or crashed
	slot       uint64     // the slot the pending action acts in next
	end        uint64     // the last slot of the pending action's run
	payload    any
	fb         Feedback // the feedback of the next step
	await      bool     // stepped before the next slot is picked
	tx         bool     // transmits in the slot being resolved
	sleepUntil uint64   // first slot after the current sleep window
	err        error
}

// refEngine holds one reference run.
type refEngine struct {
	g      *graph.Graph
	model  Model
	trace  func(Event)
	plan   fault.Plan
	res    *Result
	d      []refDev
	cohort []int
}

// refRun runs devs under cfg on the reference engine. Budgets, seeds,
// device IDs, faults and the trace follow Config's documentation.
func refRun(cfg Config, devs []Device) (*Result, error) {
	g := cfg.Graph
	n := g.N()
	maxSlots, maxEvents := cfg.MaxSlots, cfg.MaxEvents
	if maxSlots == 0 {
		maxSlots = 1 << 40
	}
	if maxEvents == 0 {
		maxEvents = 1 << 28
	}
	// Env reads the run's global knowledge through its sim pointer; this
	// Simulator carries only those fields and never runs.
	info := &Simulator{n: n, model: cfg.Model, idSpace: cfg.IDSpace}
	r := &refEngine{
		g:     g,
		model: cfg.Model,
		trace: cfg.Trace,
		plan:  cfg.Fault.Plan(cfg.Seed),
		res:   &Result{Energy: make([]int, n), Transmits: make([]int, n), Listens: make([]int, n)},
		d:     make([]refDev, n),
	}
	for v := range r.d {
		pcg := new(rand.PCG)
		rng.ReseedChild(pcg, cfg.Seed, uint64(v))
		id := 0
		if cfg.IDSpace > 0 {
			id = v + 1
			if cfg.IDs != nil {
				id = cfg.IDs[v]
			}
		}
		r.d[v] = refDev{proc: devs[v].Proc, env: Env{sim: info, index: v, devID: id, rand: rand.New(pcg)}, await: true}
	}
	var firstErr error
	for {
		for v := range r.d {
			if d := &r.d[v]; d.await {
				d.await = false
				r.step(v)
				if d.err != nil && firstErr == nil {
					firstErr = d.err
				}
			}
		}
		t, live := uint64(0), false
		for v := range r.d {
			if d := &r.d[v]; d.kind != ActHalt && (!live || d.slot < t) {
				t, live = d.slot, true
			}
		}
		if !live {
			return r.res, firstErr
		}
		if t > maxSlots {
			return r.res, fmt.Errorf("%w: slot %d > MaxSlots %d", ErrBudget, t, maxSlots)
		}
		r.res.Slots = max(r.res.Slots, t)
		if err := r.resolve(t, maxEvents); err != nil {
			return r.res, err
		}
	}
}

// step advances device v to its next channel action or halt, as
// Simulator.stepDevice does; a panic halts the device with an error.
func (r *refEngine) step(v int) {
	d := &r.d[v]
	defer func() {
		if p := recover(); p != nil {
			d.kind = ActHalt
			d.err = fmt.Errorf("radio: device %d panicked: %v", v, p)
		}
	}()
	fb := d.fb
	d.fb = Feedback{}
	for i := 0; ; i++ {
		act := d.proc.Step(&d.env, fb)
		fb = Feedback{}
		switch act.Kind {
		case ActSleep:
			d.env.now = max(d.env.now, act.Slot)
			if i >= stepLimit {
				d.kind = ActHalt
				d.err = fmt.Errorf("radio: device %d stepped %d times without a channel action", v, i)
				return
			}
		case ActHalt:
			d.kind = ActHalt
			return
		case ActTransmit, ActListen, ActTransmitListen:
			if act.Slot <= d.env.now {
				panic(fmt.Sprintf("radio: device %d scheduled slot %d, but its clock is already at %d", v, act.Slot, d.env.now))
			}
			if act.Run > 1 && act.Kind == ActTransmitListen {
				panic(fmt.Sprintf("radio: device %d returned a full-duplex run", v))
			}
			d.kind, d.slot, d.end, d.payload = act.Kind, act.Slot, act.Slot+uint64(max(act.Run, 1))-1, act.Payload
			d.env.now = act.Slot
			return
		default:
			panic(fmt.Sprintf("radio: device %d returned invalid action kind %d", v, act.Kind))
		}
	}
}

// resolve plays slot t: faults first, then every cohort member's
// action in device order. A member whose run goes on waits for slot
// t+1; the others are stepped before the next slot is picked.
func (r *refEngine) resolve(t uint64, maxEvents uint64) error {
	r.cohort = r.cohort[:0]
	for v := range r.d {
		if d := &r.d[v]; d.kind != ActHalt && d.slot == t {
			if r.plan.Kind() == fault.Crash && r.plan.Fires(int32(v), t) {
				r.res.FaultCrashes++
				d.kind = ActHalt
				continue
			}
			r.cohort = append(r.cohort, v)
		}
	}
	asleep := make(map[int]bool)
	for _, v := range r.cohort {
		d := &r.d[v]
		if r.plan.Kind() == fault.Sleep {
			if t < d.sleepUntil {
				asleep[v] = true
			} else if r.plan.Fires(int32(v), t) {
				r.res.FaultSleeps++
				d.sleepUntil = t + r.plan.Window()
				asleep[v] = true
			}
		}
		d.tx = !asleep[v] && (d.kind == ActTransmit || d.kind == ActTransmitListen)
	}
	for _, v := range r.cohort {
		d := &r.d[v]
		var fb Feedback
		if !asleep[v] {
			if d.kind != ActListen {
				r.res.Energy[v]++
				r.res.Transmits[v]++
				r.res.Events++
				r.emit(Event{Slot: t, Dev: v, Kind: EventTransmit, Payload: d.payload, From: -1})
			}
			if d.kind != ActTransmit {
				if d.kind == ActListen {
					r.res.Energy[v]++
				}
				r.res.Listens[v]++
				r.res.Events++
				fb = r.hear(v, t)
			}
		}
		if r.res.Events > maxEvents {
			return fmt.Errorf("%w: events > MaxEvents %d", ErrBudget, maxEvents)
		}
		if t < d.end && (d.kind == ActTransmit || fb.Status != Received) {
			d.slot = t + 1
		} else {
			d.fb, d.await = fb, true
			d.env.now = t
		}
	}
	for _, v := range r.cohort {
		r.d[v].tx = false
	}
	return nil
}

// hear resolves listener v in slot t from every transmitting neighbour,
// erasing a delivery when a loss fault fires.
func (r *refEngine) hear(v int, t uint64) Feedback {
	var txs []int
	for _, w := range r.g.Neighbors(v) {
		if r.d[w].tx {
			txs = append(txs, w)
		}
	}
	sort.Ints(txs)
	delivers := len(txs) == 1 || len(txs) > 1 && (r.model == CDStar || r.model == Local)
	switch {
	case delivers && r.plan.Kind() == fault.Loss && r.plan.Fires(int32(v), t):
		r.res.FaultErasures++
	case delivers && r.model == Local:
		e := &r.d[v].env
		e.pbuf = e.pbuf[:0]
		for _, w := range txs {
			e.pbuf = append(e.pbuf, r.d[w].payload)
			r.emit(Event{Slot: t, Dev: v, Kind: EventReceive, Payload: r.d[w].payload, From: w})
		}
		return Heard(&e.pbuf)
	case delivers:
		w := txs[0]
		r.emit(Event{Slot: t, Dev: v, Kind: EventReceive, Payload: r.d[w].payload, From: w})
		return Feedback{Status: Received, Payload: r.d[w].payload}
	case len(txs) > 1 && r.model == CD:
		r.emit(Event{Slot: t, Dev: v, Kind: EventNoise, From: -1})
		return Feedback{Status: Noise}
	}
	r.emit(Event{Slot: t, Dev: v, Kind: EventSilence, From: -1})
	return Feedback{Status: Silence}
}

func (r *refEngine) emit(ev Event) {
	if r.trace != nil {
		r.trace(ev)
	}
}

// TestEngineMatchesReference runs runProc populations (feedback-driven
// runs of 1 to 200 slots, near and far starts) on the Simulator and on
// the reference engine, under every model and fault kind, traced and
// untraced: the Result, every step's observation and the event stream
// must agree. The n = 80 and n = 150 graphs need two- and three-word
// wheel buckets; on the sparse n = 24 graph many slots hold few
// transmitters, some only full-duplex ones. One recycled Simulator per
// graph runs every case.
func TestEngineMatchesReference(t *testing.T) {
	faults := []fault.Spec{
		{},
		{Kind: fault.Crash, Rate: 0.002},
		{Kind: fault.Sleep, Rate: 0.03, Window: 4},
		{Kind: fault.Loss, Rate: 0.1},
	}
	for _, gc := range []struct {
		n    int
		p    float64
		seed uint64
	}{{24, 0.2, 3}, {80, 0.06, 1}, {150, 0.04, 2}} {
		g := graph.GNP(gc.n, gc.p, gc.seed)
		sim, err := NewSimulator(g, Config{Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []Model{NoCD, CD, CDStar, Local} {
			for _, fs := range faults {
				for _, traced := range []bool{false, true} {
					for seed := uint64(1); seed <= 2; seed++ {
						name := fmt.Sprintf("n=%d %v %s traced=%v seed %d", gc.n, model, fs.Label(), traced, seed)
						run := func(engine func(Config, []Device) (*Result, error)) ([]Event, *Result, []string) {
							var events []Event
							var obs []string
							cfg := Config{Graph: g, Model: model, Seed: seed, Fault: fs}
							if traced {
								cfg.Trace = func(ev Event) { events = append(events, ev) }
							}
							res, err := engine(cfg, runPopulation(g.N(), seed, false, &obs))
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							return events, res, obs
						}
						simEv, simRes, simObs := run(sim.run)
						refEv, refRes, refObs := run(refRun)
						if i := firstDiff(len(simEv), len(refEv), func(i int) bool { return simEv[i] == refEv[i] }); i >= 0 {
							t.Fatalf("%s: event %d of %d/%d: engine %+v, reference %+v", name, i, len(simEv), len(refEv),
								at(simEv, i), at(refEv, i))
						}
						if !reflect.DeepEqual(simRes, refRes) {
							t.Fatalf("%s: Result\n engine    %+v\n reference %+v", name, simRes, refRes)
						}
						if i := firstDiff(len(simObs), len(refObs), func(i int) bool { return simObs[i] == refObs[i] }); i >= 0 {
							t.Fatalf("%s: observation %d: engine %q, reference %q", name, i, at(simObs, i), at(refObs, i))
						}
					}
				}
			}
		}
	}
}
