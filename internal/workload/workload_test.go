package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/radio"
)

func TestRegistryHasBuiltins(t *testing.T) {
	want := []string{"broadcast", "leader", "msrc", "tradeoff"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != name || w.Doc() == "" {
			t.Errorf("workload %q: bad Name/Doc", name)
		}
	}
}

func TestLookupDefaultsToBroadcast(t *testing.T) {
	w, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "broadcast" {
		t.Errorf("default workload = %q", w.Name())
	}
}

func TestLookupUnknownListsValidNames(t *testing.T) {
	_, err := Lookup("frobnicate")
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestUnknownParamListsSchema(t *testing.T) {
	for _, name := range Names() {
		w, _ := Lookup(name)
		if _, err := w.Expand(map[string]string{"frob": "1"}); err == nil {
			t.Errorf("workload %q accepted an unknown parameter", name)
		} else if len(w.Params()) > 0 && !strings.Contains(err.Error(), w.Params()[0].Name) {
			t.Errorf("workload %q error %q does not list schema keys", name, err)
		}
	}
}

func TestBroadcastDefaultPointHasEmptyLabel(t *testing.T) {
	w, _ := Lookup("broadcast")
	pts, err := w.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Label != "" {
		t.Fatalf("default broadcast points = %+v, want one unlabeled point", pts)
	}
}

func TestBroadcastRunMeasures(t *testing.T) {
	w, _ := Lookup("broadcast")
	pts, _ := w.Expand(nil)
	m, err := w.Run(graph.Path(8), pts[0], 7, Options{Model: radio.Local, Algorithm: core.AlgoAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed || m.Slots == 0 || m.MaxEnergy == 0 || len(m.Extra) != 0 {
		t.Errorf("measures = %+v", m)
	}
	if uint64(m.MaxEnergy) > m.Slots {
		t.Errorf("energy invariant violated: maxE %d > slots %d", m.MaxEnergy, m.Slots)
	}
}

func TestBroadcastEpsGrid(t *testing.T) {
	w, _ := Lookup("broadcast")
	pts, err := w.Expand(map[string]string{"eps": "0.25,0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Label != "eps=0.25" || pts[1].Label != "eps=0.5" {
		t.Fatalf("points = %+v", pts)
	}
}

func TestMsrcGridAndFronts(t *testing.T) {
	w, _ := Lookup("msrc")
	pts, err := w.Expand(map[string]string{"k": "2,3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Label != "k=2" || pts[1].Label != "k=3" {
		t.Fatalf("points = %+v", pts)
	}
	m, err := w.Run(graph.Cycle(12), pts[0], 5, Options{Model: radio.Local, Algorithm: core.AlgoAuto})
	if err != nil {
		t.Fatal(err)
	}
	// k=2: front0, front1, frontMin, frontMax.
	if len(m.Extra) != 4 {
		t.Fatalf("extra columns = %+v", m.Extra)
	}
	if m.Extra[0].Name != "front0" || m.Extra[3].Name != "frontMax" {
		t.Errorf("extra columns misnamed: %+v", m.Extra)
	}
	sum := m.Extra[0].X + m.Extra[1].X
	if m.Completed && sum != 12 {
		t.Errorf("fronts of a completed 2-source broadcast sum to %v, want n=12", sum)
	}
	if _, err := w.Expand(map[string]string{"k": "0"}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSpreadSources(t *testing.T) {
	srcs := SpreadSources(12, 3, 0)
	want := []int{0, 4, 8}
	for i := range want {
		if srcs[i] != want[i] {
			t.Fatalf("SpreadSources(12,3,0) = %v", srcs)
		}
	}
	if got := SpreadSources(4, 9, 0); len(got) != 4 {
		t.Errorf("k must cap at n, got %v", got)
	}
	seen := map[int]bool{}
	for _, s := range SpreadSources(7, 5, 3) {
		if seen[s] {
			t.Fatalf("duplicate source in %v", SpreadSources(7, 5, 3))
		}
		seen[s] = true
	}
}

func TestLeaderElectionOnClique(t *testing.T) {
	w, _ := Lookup("leader")
	pts, err := w.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Label != "proto=rand" {
		t.Fatalf("default leader points = %+v", pts)
	}
	g := graph.Clique(16)
	for _, model := range []radio.Model{radio.CD, radio.NoCD} {
		ok := 0
		for seed := uint64(1); seed <= 10; seed++ {
			m, err := w.Run(g, pts[0], seed, Options{Model: model})
			if err != nil {
				t.Fatal(err)
			}
			if m.Completed {
				ok++
				if agree := m.Extra[1]; agree.Name != "agree" || agree.X <= 0 {
					t.Errorf("model %v: agree column = %+v", model, agree)
				}
			}
			if uint64(m.MaxEnergy) > m.Slots {
				t.Errorf("model %v: energy invariant violated", model)
			}
		}
		if ok == 0 {
			t.Errorf("model %v: no successful election in 10 trials", model)
		}
	}
}

func TestLeaderDeterministicElectsHighestID(t *testing.T) {
	w, _ := Lookup("leader")
	pts, err := w.Expand(map[string]string{"proto": "det"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.Run(graph.Clique(8), pts[0], 1, Options{Model: radio.CD})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Completed {
		t.Fatal("deterministic CD election failed on a clique")
	}
	if agree := m.Extra[1].X; agree != 1 {
		t.Errorf("agreement = %v, want 1 (all devices learn the leader)", agree)
	}
}

func TestLeaderParamValidation(t *testing.T) {
	w, _ := Lookup("leader")
	if _, err := w.Expand(map[string]string{"proto": "quantum"}); err == nil {
		t.Error("unknown proto accepted")
	}
	if _, err := w.Expand(map[string]string{"maxslots": "0"}); err == nil {
		t.Error("maxslots=0 accepted")
	}
	pts, err := w.Expand(map[string]string{"proto": "rand,det", "maxslots": "128,256"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("grid points = %d, want 4", len(pts))
	}
	seen := map[string]bool{}
	for _, pt := range pts {
		if seen[pt.Label] {
			t.Errorf("duplicate point label %q", pt.Label)
		}
		seen[pt.Label] = true
	}
}

func TestTradeoffGrid(t *testing.T) {
	w, _ := Lookup("tradeoff")
	pts, err := w.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("default beta grid = %+v", pts)
	}
	m, err := w.Run(graph.Star(12), pts[2], 3, Options{Model: radio.CD, Lean: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Slots == 0 {
		t.Error("no slots measured")
	}
	if len(m.Extra) != 1 || m.Extra[0].Name != "beta" || m.Extra[0].X != 0.25 {
		t.Errorf("beta column = %+v", m.Extra)
	}
	// Faults reach the trial's engine run: crashes are injected and
	// counted, and a rate-0 spec leaves every measure unchanged.
	crash := Options{Model: radio.CD, Lean: true, Fault: fault.Spec{Kind: fault.Crash, Rate: 0.01}}
	fm, err := w.Run(graph.Star(12), pts[2], 3, crash)
	if err != nil {
		t.Fatal(err)
	}
	if fm.FaultCrashes == 0 {
		t.Errorf("crash:0.01 injected no crashes: %+v", fm)
	}
	crash.Fault.Rate = 0
	zm, err := w.Run(graph.Star(12), pts[2], 3, crash)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zm, m) {
		t.Errorf("rate-0 fault spec changed the trial:\n got %+v\nwant %+v", zm, m)
	}
	if _, err := w.Expand(map[string]string{"beta": "0.5"}); err == nil {
		t.Error("beta > 1/4 accepted")
	}
	if _, err := w.Expand(map[string]string{"beta": "0.1", "eps": "0.5"}); err == nil {
		t.Error("beta and eps together accepted")
	}
	epts, err := w.Expand(map[string]string{"eps": "0.5,1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(epts) != 2 || epts[0].Label != "eps=0.5" {
		t.Fatalf("eps points = %+v", epts)
	}
}

func TestBroadcastRejectsOutOfRangeKnobs(t *testing.T) {
	w, _ := Lookup("broadcast")
	if _, err := w.Expand(map[string]string{"eps": "-0.5"}); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := w.Expand(map[string]string{"xi": "1.5"}); err == nil {
		t.Error("xi > 1 accepted")
	}
}

func TestMsrcRejectsKBeyondN(t *testing.T) {
	w, _ := Lookup("msrc")
	pts, err := w.Expand(map[string]string{"k": "9"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(graph.Path(4), pts[0], 1, Options{Model: radio.Local}); err == nil {
		t.Error("k > n accepted; the cell label would misreport the source count")
	}
}

func TestLeaderFailedTrialsEmitNoElectionColumns(t *testing.T) {
	w, _ := Lookup("leader")
	// Deterministic election under No-CD cannot work (listeners cannot
	// tell silence from collision), so the trial fails — and must not
	// contribute electSlot/agree samples that would skew aggregates.
	pts, err := w.Expand(map[string]string{"proto": "det"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.Run(graph.Clique(8), pts[0], 1, Options{Model: radio.NoCD})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed {
		t.Skip("deterministic election unexpectedly succeeded under No-CD")
	}
	if len(m.Extra) != 0 {
		t.Errorf("failed election emitted samples: %+v", m.Extra)
	}
}

func TestCIMeasures(t *testing.T) {
	core := CoreMeasures()
	if len(core) != 4 {
		t.Fatalf("core measures: %v", core)
	}
	for _, m := range core {
		if !m.CI {
			t.Errorf("core measure %s not CI-eligible", m.Name)
		}
	}

	// broadcast: core columns only.
	bw, _ := Lookup("broadcast")
	pts, err := bw.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := CIMeasures(bw, pts[0]); len(got) != 4 {
		t.Errorf("broadcast measures: %v", got)
	}

	// msrc: per-source fronts, all eligible, sized by the point's k.
	mw, _ := Lookup("msrc")
	pts, err = mw.Expand(map[string]string{"k": "3"})
	if err != nil {
		t.Fatal(err)
	}
	got := CIMeasures(mw, pts[0])
	if len(got) != 4+3+2 {
		t.Fatalf("msrc k=3 measures: %v", got)
	}
	for _, m := range got {
		if !m.CI {
			t.Errorf("msrc measure %s should be CI-eligible", m.Name)
		}
	}

	// leader and tradeoff: extras declared but ineligible.
	for _, name := range []string{"leader", "tradeoff"} {
		w, _ := Lookup(name)
		pts, err := w.Expand(nil)
		if err != nil {
			t.Fatal(err)
		}
		ms := CIMeasures(w, pts[0])
		if len(ms) <= 4 {
			t.Fatalf("%s declared no extra measures: %v", name, ms)
		}
		for _, m := range ms[4:] {
			if m.CI {
				t.Errorf("%s extra measure %s should be CI-ineligible", name, m.Name)
			}
		}
	}
}
