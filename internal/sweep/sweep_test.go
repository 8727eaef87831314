package sweep

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/radio"
)

// TestReproducibleAcrossWorkerCounts is the engine's core contract: a
// >= 1,000-trial matrix aggregates to bit-identical JSON whether it runs
// on one worker or eight.
func TestReproducibleAcrossWorkerCounts(t *testing.T) {
	spec := Spec{
		Topologies: []Topology{
			{Kind: "path", N: 8},
			{Kind: "star", N: 8},
		},
		Models:     []radio.Model{radio.Local},
		Algorithms: []core.Algorithm{core.AlgoAuto},
		Trials:     550, // 2 cells x 550 = 1100 trials
		MasterSeed: 42,
	}
	render := func(workers int) string {
		rep, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("aggregate JSON differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

func TestSeedDerivationIsPositional(t *testing.T) {
	a := TrialSeed(1, 0, 0)
	b := TrialSeed(1, 0, 1)
	c := TrialSeed(1, 1, 0)
	d := TrialSeed(2, 0, 0)
	seen := map[uint64]bool{a: true}
	for _, s := range []uint64{b, c, d} {
		if seen[s] {
			t.Fatalf("seed collision across positions: %d %d %d %d", a, b, c, d)
		}
		seen[s] = true
	}
}

func TestRunAggregatesAndInvariant(t *testing.T) {
	spec := Spec{
		Topologies: []Topology{{Kind: "cycle", N: 10}},
		Models:     []radio.Model{radio.Local, radio.NoCD},
		Trials:     20,
		MasterSeed: 7,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Trials != 20 || c.Errors != 0 {
			t.Errorf("%s/%s: trials=%d errors=%d", c.Graph, c.Model, c.Trials, c.Errors)
		}
		if c.Completed == 0 {
			t.Errorf("%s/%s: no completed trials", c.Graph, c.Model)
		}
		// The awake-slot invariant, aggregated: worst-case energy never
		// exceeds worst-case slots.
		if c.MaxEnergy.Max > c.Slots.Max {
			t.Errorf("%s/%s: maxE %v > slots %v", c.Graph, c.Model, c.MaxEnergy.Max, c.Slots.Max)
		}
		if c.Slots.P50 > c.Slots.P99 || c.Slots.P99 > c.Slots.Max {
			t.Errorf("%s/%s: percentiles out of order: %+v", c.Graph, c.Model, c.Slots)
		}
	}
}

func TestTrialErrorsAreRecordedNotFatal(t *testing.T) {
	// Deterministic No-CD does not exist: every trial must fail softly.
	spec := Spec{
		Topologies: []Topology{{Kind: "path", N: 6}},
		Models:     []radio.Model{radio.NoCD},
		Algorithms: []core.Algorithm{core.AlgoDeterministic},
		Trials:     5,
		MasterSeed: 3,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells[0].Errors != 5 || rep.Cells[0].Completed != 0 {
		t.Errorf("want 5 soft errors, got %+v", rep.Cells[0])
	}
	if rep.Cells[0].Slots.Count != 0 {
		t.Errorf("errored trials leaked into aggregates: %+v", rep.Cells[0].Slots)
	}
}

// TestCellRunsItsLabelledModel: cdmerge runs only CD and bounded-degree
// only No-CD, so of their six cells under No-CD, CD and LOCAL the two
// whose label names the model run complete and the other four error in
// every trial, rather than reporting a run of another model under their
// label.
func TestCellRunsItsLabelledModel(t *testing.T) {
	spec := Spec{
		Topologies: []Topology{{Kind: "gnp", N: 24, Seed: 3}},
		Models:     []radio.Model{radio.NoCD, radio.CD, radio.Local},
		Algorithms: []core.Algorithm{core.AlgoCDMerge, core.AlgoBoundedDegree},
		Trials:     1,
		MasterSeed: 1,
		Lean:       true,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 6 {
		t.Fatalf("%d cells, want 6", len(rep.Cells))
	}
	ran := map[string]string{"cdmerge": "CD", "bounded-degree": "No-CD"}
	for _, c := range rep.Cells {
		if ran[c.Algorithm] == c.Model {
			if c.Completed != c.Trials || c.Errors != 0 {
				t.Errorf("%s under %s: %d/%d completed, %d errors; want all completed",
					c.Algorithm, c.Model, c.Completed, c.Trials, c.Errors)
			}
		} else if c.Errors != c.Trials {
			t.Errorf("%s under %s: %d of %d trials errored, want all", c.Algorithm, c.Model, c.Errors, c.Trials)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Run(Spec{Trials: 1}, Options{}); err == nil {
		t.Error("empty topology list accepted")
	}
	if _, err := Run(Spec{Topologies: []Topology{{Kind: "path", N: 4}}}, Options{}); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := Run(Spec{Topologies: []Topology{{Kind: "nope", N: 4}}, Trials: 1}, Options{}); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := Run(Spec{Topologies: []Topology{{Kind: "path", N: 4}}, Trials: 1, Source: 9}, Options{}); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestCSVExport(t *testing.T) {
	spec := Spec{
		Topologies: []Topology{{Kind: "path", N: 6}},
		Models:     []radio.Model{radio.Local},
		Trials:     4,
		MasterSeed: 5,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "graph,n,model,algorithm,trials") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "path-6,6,LOCAL,auto,4,") {
		t.Errorf("csv row = %q", lines[1])
	}
}

func TestParseTopology(t *testing.T) {
	ts, err := ParseTopology("gnp:32,64:p=0.2,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].N != 32 || ts[1].N != 64 || ts[0].P != 0.2 || ts[1].Seed != 7 {
		t.Errorf("parsed %+v", ts)
	}
	if _, err := ParseTopology("gnp"); err == nil {
		t.Error("missing sizes accepted")
	}
	if _, err := ParseTopology("path:0"); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := ParseTopology("gnp:8:frob=1"); err == nil {
		t.Error("unknown option accepted")
	}
	grid, err := ParseTopology("grid:4:cols=6")
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 24 {
		t.Errorf("grid 4x6 has %d vertices", g.N())
	}
}

func TestParseModelsAndAlgorithms(t *testing.T) {
	ms, err := ParseModels("local,No-CD,cd*")
	if err != nil {
		t.Fatal(err)
	}
	want := []radio.Model{radio.Local, radio.NoCD, radio.CDStar}
	for i := range want {
		if ms[i] != want[i] {
			t.Errorf("models = %v", ms)
		}
	}
	if _, err := ParseModels("quantum"); err == nil {
		t.Error("unknown model accepted")
	}
	as, err := ParseAlgorithms("auto,path,baseline-decay")
	if err != nil {
		t.Fatal(err)
	}
	if as[0] != core.AlgoAuto || as[1] != core.AlgoPath || as[2] != core.AlgoBaselineDecay {
		t.Errorf("algorithms = %v", as)
	}
	if _, err := ParseAlgorithms("magic"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestCollectTrialsOrderedAndFiltered(t *testing.T) {
	out := CollectTrials(10, 4, func(i int) (int, bool) {
		return i * i, i%2 == 0 // keep even indices only
	})
	want := []int{0, 4, 16, 36, 64}
	if len(out) != len(want) {
		t.Fatalf("collected %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("collected %v, want %v (trial order must survive parallelism)", out, want)
		}
	}
}

func TestRunTrialsCoversAllIndices(t *testing.T) {
	hit := make([]int, 100)
	// Each worker index belongs to one goroutine, so unsynchronized
	// per-worker state is race-free (the -race run checks that).
	perWorker := make([]int, 7)
	RunTrials(100, 7, func(w, i int) {
		hit[i]++
		perWorker[w]++
	})
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("trial %d ran %d times", i, h)
		}
	}
	sum := 0
	for _, n := range perWorker {
		sum += n
	}
	if sum != 100 {
		t.Fatalf("per-worker counts %v sum to %d, want 100", perWorker, sum)
	}
	RunTrials(0, 4, func(_, _ int) { t.Error("fn called for zero trials") })
}

// goldenSpec is the fixed spec whose aggregate JSON was captured from the
// pre-workload engine (testdata/golden_broadcast.json, generated by
// `sweep -topo path:8 -topo star:8 -models local,nocd -algos auto
// -trials 60 -seed 42`).
func goldenSpec(workloadName string) Spec {
	return Spec{
		Topologies: []Topology{{Kind: "path", N: 8}, {Kind: "star", N: 8}},
		Models:     []radio.Model{radio.Local, radio.NoCD},
		Algorithms: []core.Algorithm{core.AlgoAuto},
		Workload:   workloadName,
		Trials:     60,
		MasterSeed: 42,
	}
}

// TestBroadcastWorkloadMatchesGolden pins the compatibility contract: the
// workload-based engine reproduces the pre-workload JSON byte for byte,
// both for the implicit default and for -workload broadcast.
func TestBroadcastWorkloadMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_broadcast.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "broadcast"} {
		rep, err := Run(goldenSpec(name), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != string(golden) {
			t.Errorf("workload=%q JSON diverges from the pre-workload golden:\n%s", name, buf.String())
		}
	}
}

// renderJSON runs the spec and serializes the report.
func renderJSON(t *testing.T, spec Spec, workers int) string {
	t.Helper()
	rep, err := Run(spec, Options{Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The per-workload determinism contract: bit-identical aggregates for
// any worker count.

func TestMsrcWorkloadDeterministicAcrossWorkers(t *testing.T) {
	spec := Spec{
		Topologies:     []Topology{{Kind: "path", N: 10}, {Kind: "cycle", N: 10}},
		Models:         []radio.Model{radio.Local},
		Workload:       "msrc",
		WorkloadParams: map[string]string{"k": "2,3"},
		Trials:         40,
		MasterSeed:     11,
	}
	serial, parallel := renderJSON(t, spec, 1), renderJSON(t, spec, 8)
	if serial != parallel {
		t.Errorf("msrc aggregates differ between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, `"workload": "msrc"`) || !strings.Contains(serial, `"front0"`) {
		t.Errorf("msrc report missing workload tag or front columns:\n%s", serial)
	}
}

func TestLeaderWorkloadDeterministicAcrossWorkers(t *testing.T) {
	spec := Spec{
		Topologies:     []Topology{{Kind: "clique", N: 12}},
		Models:         []radio.Model{radio.CD, radio.NoCD},
		Workload:       "leader",
		WorkloadParams: map[string]string{"proto": "rand,det"},
		Trials:         40,
		MasterSeed:     13,
	}
	serial, parallel := renderJSON(t, spec, 1), renderJSON(t, spec, 8)
	if serial != parallel {
		t.Errorf("leader aggregates differ between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, `"params": "proto=rand"`) || !strings.Contains(serial, `"electSlot"`) {
		t.Errorf("leader report missing param labels or columns:\n%s", serial)
	}
}

func TestTradeoffWorkloadDeterministicAcrossWorkers(t *testing.T) {
	spec := Spec{
		Topologies: []Topology{{Kind: "star", N: 12}},
		Models:     []radio.Model{radio.CD},
		Workload:   "tradeoff",
		Trials:     8,
		MasterSeed: 17,
		Lean:       true,
	}
	serial, parallel := renderJSON(t, spec, 1), renderJSON(t, spec, 8)
	if serial != parallel {
		t.Errorf("tradeoff aggregates differ between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	// One cell per default beta grid point, labeled.
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 3 {
		t.Fatalf("tradeoff cells = %d, want 3 (beta grid)", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if !strings.HasPrefix(c.Params, "beta=") {
			t.Errorf("cell params = %q", c.Params)
		}
		if len(c.Extra) != 1 || c.Extra[0].Name != "beta" {
			t.Errorf("cell extra = %+v", c.Extra)
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	spec := goldenSpec("frobnicate")
	spec.Trials = 1
	if _, err := Run(spec, Options{}); err == nil {
		t.Error("unknown workload accepted")
	} else if !strings.Contains(err.Error(), "broadcast") {
		t.Errorf("error %q does not list valid workloads", err)
	}
}

func TestHeterogeneousCSVColumns(t *testing.T) {
	spec := Spec{
		Topologies:     []Topology{{Kind: "path", N: 8}},
		Models:         []radio.Model{radio.Local},
		Workload:       "msrc",
		WorkloadParams: map[string]string{"k": "2,3"},
		Trials:         4,
		MasterSeed:     5,
	}
	rep, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), buf.String())
	}
	header := lines[0]
	for _, col := range []string{"params", "front0_mean", "front2_mean", "frontMax_max"} {
		if !strings.Contains(header, col) {
			t.Errorf("csv header missing %q: %s", col, header)
		}
	}
	// The k=2 cell has no front2 column: its cells stay empty.
	if !strings.Contains(lines[1], ",,") {
		t.Errorf("k=2 row should leave front2 columns empty: %s", lines[1])
	}
	if strings.Contains(lines[2], ",,") {
		t.Errorf("k=3 row should fill every column: %s", lines[2])
	}
}
