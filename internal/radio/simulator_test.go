package radio

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestSimulatorReuseMatchesFreshRuns pins the reuse contract: a recycled
// Simulator produces the byte-identical event stream and measurements a
// fresh engine produces, for every seed and across all models.
func TestSimulatorReuseMatchesFreshRuns(t *testing.T) {
	g := graph.GNP(20, 0.3, 7)
	for _, model := range []Model{NoCD, CD, CDStar, Local} {
		sim, err := NewSimulator(g, Config{Graph: g, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 5; seed++ {
			var sb strings.Builder
			simCfg := Config{Graph: g, Model: model, Seed: seed, Trace: func(ev Event) {
				sb.WriteString(formatEvent(ev))
				sb.WriteByte('\n')
			}}
			res, err := sim.run(simCfg, contendingProcs(20, 25))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%d %d %v", res.Slots, res.Events, res.Energy)
			fresh := traceDevices(t, Config{Graph: g, Model: model, Seed: seed},
				contendingProcs(20, 25))
			if sb.String() != fresh {
				t.Fatalf("model %v seed %d: reused simulator diverges from fresh run", model, seed)
			}
		}
	}
}

// TestSimulatorSeedEntry checks the public RunDevices(seed, devs) entry:
// the template config's model is kept and the seed drives the device
// streams.
func TestSimulatorSeedEntry(t *testing.T) {
	g := graph.Clique(8)
	sim, err := NewSimulator(g, Config{Graph: g, Model: CD})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sim.RunDevices(3, contendingProcs(8, 20))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.RunDevices(3, contendingProcs(8, 20))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Events != r2.Events || r1.Slots != r2.Slots {
		t.Fatalf("same seed differs across reuses: %+v vs %+v", r1, r2)
	}
	// Result slices must stay valid after later runs.
	e0 := append([]int(nil), r1.Energy...)
	if _, err := sim.RunDevices(4, contendingProcs(8, 20)); err != nil {
		t.Fatal(err)
	}
	for i := range e0 {
		if r1.Energy[i] != e0[i] {
			t.Fatal("earlier Result clobbered by a later run")
		}
	}
}

// TestSimulatorReuseAfterAbort exercises the error/reset path: a budget
// abort ends the run mid-flight with requests still pending in the
// scheduler's wheel and in its far heap — and, for an abort mid-slot,
// run members already filed for the next slot and listen runs parked —
// and the next run on the same Simulator must match a fresh engine's
// run event for event and in every Result field.
func TestSimulatorReuseAfterAbort(t *testing.T) {
	const n = 130
	g := graph.GNP(n, 0.05, 3)
	sim, err := NewSimulator(g, Config{Graph: g, Model: NoCD, MaxSlots: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, abort := range []struct {
		cfg     Config
		members bool // the abort comes mid-slot, after run members were filed
	}{
		{Config{Graph: g, Model: NoCD, Seed: 1, MaxSlots: 10}, false},
		{Config{Graph: g, Model: NoCD, Seed: 1, MaxEvents: 400}, true},
	} {
		if _, err := sim.run(abort.cfg, overProcs(n)); err == nil || !errors.Is(err, ErrBudget) {
			t.Fatalf("want ErrBudget, got %v", err)
		}
		next := int(sim.now+1) % wheelSlots
		members := 0
		for v := 1; v < n; v += 5 {
			if sim.wheel[next*sim.words+v>>6]&(1<<(v&63)) != 0 {
				members++
			}
		}
		parked := 0
		for v := 2; v < n; v += 5 {
			if sim.kinds[v]&actParked != 0 {
				parked++
			}
		}
		if sim.occ == 0 || len(sim.far) == 0 || (abort.members && (members == 0 || parked == 0)) {
			t.Fatalf("abort left wheel occupancy %#x, %d far requests, %d run members filed and %d listen runs parked; the test needs them pending",
				sim.occ, len(sim.far), members, parked)
		}
		// Clean run on the recycled, previously aborted engine. It runs
		// past slot 90, where the far leftovers were due, and each device
		// sits out six slots in seven, so a leftover request would show.
		cfg := Config{Graph: g, Model: NoCD, Seed: 2}
		wantTrace, want := tracedRun(t, nil, cfg, staggeredProcs(n, 120))
		gotTrace, got := tracedRun(t, sim, cfg, staggeredProcs(n, 120))
		if gotTrace != wantTrace || !reflect.DeepEqual(got, want) {
			t.Fatalf("post-abort reuse diverges from a fresh run:\n got %+v\nwant %+v", got, want)
		}
		// The traced run parks nothing, so a parked count left over from
		// the abort would still show.
		if sim.parked != 0 {
			t.Fatalf("%d listen runs still counted parked after a clean run", sim.parked)
		}
	}
	cfg := Config{Graph: g, Model: NoCD, Seed: 2}
	// Same again after a device-panic run.
	boom := make([]Device, n)
	for v := range boom {
		if v == 3 {
			boom[v].Proc = ProcFunc(func(Channel, Feedback) Action { panic("boom") })
		} else {
			boom[v].Proc = ContProc(func(Channel) Cont { return Then(Listen(1), nil) })
		}
	}
	if _, err := sim.RunDevices(5, boom); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want device panic, got %v", err)
	}
	cfg.Seed = 6
	wantTrace, want := tracedRun(t, nil, cfg, staggeredProcs(n, 120))
	gotTrace, got := tracedRun(t, sim, cfg, staggeredProcs(n, 120))
	if gotTrace != wantTrace || !reflect.DeepEqual(got, want) {
		t.Fatalf("post-panic reuse diverges from a fresh run:\n got %+v\nwant %+v", got, want)
	}
}

// overProcs is the population the abort test overruns: every fifth
// device jumps 90 slots per action, every fifth from device 1 transmits
// in runs of 30 slots, every fifth from device 2 listens in runs of 30
// slots, and the others step 1 to 4 slots, so an abort past slot 10
// leaves near requests in the wheel, far ones in the far heap and,
// without a trace sink, listen runs parked.
func overProcs(n int) []Device {
	devs := make([]Device, n)
	for v := range devs {
		step := uint64(1 + v%4)
		switch v % 5 {
		case 0:
			step = 90
		case 1, 2:
			step = 30
		}
		var s uint64
		devs[v].Proc = ProcFunc(func(Channel, Feedback) Action {
			first := s + 1
			s += step
			switch {
			case v%5 == 1:
				return TransmitRun(first, int(step), nil)
			case v%5 == 2:
				return ListenRun(first, int(step))
			}
			return Transmit(s, nil)
		})
	}
	return devs
}

// staggeredProcs has device v act every seventh slot from slot v%7+1
// through slot until, transmitting with probability 1/4 and listening
// otherwise.
func staggeredProcs(n int, until uint64) []Device {
	devs := make([]Device, n)
	for v := range devs {
		next := uint64(v%7 + 1)
		devs[v].Proc = ProcFunc(func(ch Channel, _ Feedback) Action {
			s := next
			if s > until {
				return Halt()
			}
			next += 7
			if ch.Rand().IntN(4) == 0 {
				return Transmit(s, ch.Index())
			}
			return Listen(s)
		})
	}
	return devs
}

// tracedRun runs devs under cfg on sim, or on a fresh engine when sim
// is nil, and returns the rendered event stream with the Result.
func tracedRun(t *testing.T, sim *Simulator, cfg Config, devs []Device) (string, *Result) {
	t.Helper()
	var sb strings.Builder
	cfg.Trace = func(ev Event) {
		sb.WriteString(formatEvent(ev))
		sb.WriteByte('\n')
	}
	var res *Result
	var err error
	if sim == nil {
		res, err = RunDevices(cfg, devs)
	} else {
		res, err = sim.run(cfg, devs)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sb.String(), res
}

// TestSimulatorConcurrentUseRejected guards the single-goroutine
// contract with a fail-fast error instead of corruption.
func TestSimulatorConcurrentUseRejected(t *testing.T) {
	g := graph.Path(2)
	sim, err := NewSimulator(g, Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		sim.RunDevices(1, Procs([]Proc{
			ProcFunc(func(Channel, Feedback) Action {
				close(started)
				<-release
				return Halt()
			}),
			idleProc(),
		}))
	}()
	<-started
	if _, err := sim.RunDevices(2, fill(2, nil)); err == nil {
		t.Error("concurrent run accepted")
	}
	close(release)
}

// TestSchedulerPanicKeepsSimulatorReusable pins the scheduler-side panic
// path: a panicking Trace callback must surface to the caller, and the
// Simulator must stay reusable afterwards.
func TestSchedulerPanicKeepsSimulatorReusable(t *testing.T) {
	g := graph.Path(4)
	sim, err := NewSimulator(g, Config{Graph: g, Model: NoCD})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Graph: g, Model: NoCD, Seed: 1,
		Trace: func(Event) { panic("trace boom") }}
	func() {
		defer func() {
			if r := recover(); r == nil || fmt.Sprint(r) != "trace boom" {
				t.Fatalf("want trace panic to surface, got %v", r)
			}
		}()
		sim.run(cfg, contendingProcs(4, 5))
		t.Fatal("run returned normally despite trace panic")
	}()
	// A reused run must be exact.
	res, err := sim.RunDevices(2, contendingProcs(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunDevices(Config{Graph: g, Model: NoCD, Seed: 2}, contendingProcs(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != fresh.Events || res.Slots != fresh.Slots {
		t.Fatalf("post-panic reuse diverges: %+v vs %+v", res, fresh)
	}
}

// TestSimCacheReuse checks Config.Sims: byte-identical results, graph-
// keyed cache hits, and LRU eviction at the cap.
func TestSimCacheReuse(t *testing.T) {
	g := graph.Star(10)
	cache := &SimCache{}
	var with, without string
	for seed := uint64(1); seed <= 3; seed++ {
		with = traceDevices(t, Config{Graph: g, Model: CD, Seed: seed, Sims: cache},
			contendingProcs(10, 15))
		without = traceDevices(t, Config{Graph: g, Model: CD, Seed: seed},
			contendingProcs(10, 15))
		if with != without {
			t.Fatalf("seed %d: cached run diverges from fresh run", seed)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("cache has %d simulators for one graph", cache.Len())
	}
	for i := 0; i < 2*simCacheCap; i++ {
		gi := graph.Path(3 + i)
		if _, err := RunDevices(Config{Graph: gi, Sims: cache}, fill(gi.N(), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() > simCacheCap {
		t.Fatalf("cache grew to %d, cap is %d", cache.Len(), simCacheCap)
	}
}

// TestPayloadCollectableMidRun pins the payload-retention fix: a large
// transmit payload must become garbage-collectable as soon as its slot
// has resolved and every delivered reference is dropped, not at the end
// of the run.
func TestPayloadCollectableMidRun(t *testing.T) {
	type blob struct{ data [1 << 20]byte }
	var finalized atomic.Bool
	g := graph.Path(2)
	txStep := 0
	tx := ProcFunc(func(Channel, Feedback) Action {
		txStep++
		switch txStep {
		case 1:
			b := new(blob)
			b.data[0] = 1
			runtime.SetFinalizer(b, func(*blob) { finalized.Store(true) })
			return Transmit(1, b)
		case 2:
			return Transmit(2, "x")
		case 3:
			// Slot 1 resolved two rounds ago and the listener has since
			// been re-stepped, clearing its feedback cell — the blob must
			// now be collectable while the run is still going. Poll the
			// finalizer across forced GC cycles.
			for i := 0; i < 100 && !finalized.Load(); i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			return Transmit(3, "done")
		default:
			return Halt()
		}
	})
	rxSlot := uint64(0)
	rx := ProcFunc(func(ch Channel, fb Feedback) Action {
		if rxSlot == 1 && fb.Status != Received {
			t.Errorf("listener missed the blob: %v", fb.Status)
		}
		rxSlot++
		if rxSlot > 3 {
			return Halt()
		}
		return Listen(rxSlot)
	})
	if _, err := RunDevices(Config{Graph: g, Model: NoCD},
		[]Device{{Proc: tx}, {Proc: rx}}); err != nil {
		t.Fatal(err)
	}
	if !finalized.Load() {
		t.Fatal("1 MiB payload stayed pinned after its slot resolved (retention regression)")
	}
}

// TestResultArenaIndependence pins the batched-Result contract: every
// run's Result is a distinct region that stays valid and untouched
// across later runs on the same recycled Simulator, including across a
// chunk refill.
func TestResultArenaIndependence(t *testing.T) {
	g := graph.Clique(8)
	sim, err := NewSimulator(g, Config{Graph: g, Model: CD})
	if err != nil {
		t.Fatal(err)
	}
	// Enough runs to exhaust at least one arena chunk (chunk holds
	// resultChunkBytes/(3*8*8) = many results; cap is 128).
	const runs = 200
	results := make([]*Result, runs)
	snapshots := make([][]int, runs)
	for i := 0; i < runs; i++ {
		res, err := sim.RunDevices(uint64(i%5), contendingProcs(8, 10))
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
		snapshots[i] = append([]int(nil), res.Energy...)
	}
	for i, res := range results {
		for j, e := range res.Energy {
			if e != snapshots[i][j] {
				t.Fatalf("run %d energy[%d] mutated by later runs: %d -> %d", i, j, snapshots[i][j], e)
			}
		}
		if &res.Energy[0] == &results[(i+1)%runs].Energy[0] {
			t.Fatalf("runs %d and %d share counter storage", i, (i+1)%runs)
		}
	}
	// Same seed, different runs: identical measurements out of distinct
	// arena regions.
	if results[0].Slots != results[5].Slots || results[0].Events != results[5].Events {
		t.Fatal("same-seed runs diverged under arena allocation")
	}
}
