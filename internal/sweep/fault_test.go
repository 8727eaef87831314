package sweep

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/radio"
)

// TestFaultRateZeroMatchesGolden pins the sweep-level rate-0 contract:
// a fault axis whose only entry is inactive reproduces the pre-fault
// golden report byte for byte — same cells, same seeds, same JSON.
func TestFaultRateZeroMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_broadcast.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range []fault.Spec{
		{Kind: fault.Crash, Rate: 0},
		{Kind: fault.Sleep, Rate: 0},
		{Kind: fault.Loss, Rate: 0},
	} {
		spec := goldenSpec("")
		spec.Faults = []fault.Spec{fs}
		rep, err := Run(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != string(golden) {
			t.Errorf("fault %+v at rate 0 diverges from the golden report", fs)
		}
	}
}

// faultedSpec is a small matrix with an active fault grid over two kinds.
func faultedSpec() Spec {
	return Spec{
		Topologies: []Topology{{Kind: "path", N: 10}, {Kind: "star", N: 10}},
		Models:     []radio.Model{radio.Local, radio.NoCD},
		Workload:   "broadcast",
		Trials:     16,
		MasterSeed: 17,
		Faults: []fault.Spec{
			{Kind: fault.Sleep, Rate: 0.01, Window: 4},
			{Kind: fault.Loss, Rate: 0.05},
		},
	}
}

// faultedTradeoffSpec runs the tradeoff workload's default beta grid
// at lean constants under each fault kind.
func faultedTradeoffSpec() Spec {
	return Spec{
		Topologies: []Topology{{Kind: "star", N: 12}},
		Models:     []radio.Model{radio.CD, radio.NoCD},
		Workload:   "tradeoff",
		Lean:       true,
		Trials:     8,
		MasterSeed: 17,
		Faults: []fault.Spec{
			{Kind: fault.Crash, Rate: 0.01},
			{Kind: fault.Sleep, Rate: 0.01, Window: 4},
			{Kind: fault.Loss, Rate: 0.05},
		},
	}
}

// renderFaulted runs spec at one worker count and returns the report
// JSON and raw CSV bytes.
func renderFaulted(t *testing.T, spec Spec, workers int) (string, string) {
	t.Helper()
	var raw bytes.Buffer
	rep, err := Run(spec, Options{Workers: workers, Raw: &raw})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), raw.String()
}

// TestFaultDeterministicAcrossWorkers is the acceptance pin: with
// faults enabled, report JSON and the raw per-trial CSV are bit-identical
// across workers 1/4/8 — the fault hash is positional, so scheduling
// cannot shift a single injected fault.
func TestFaultDeterministicAcrossWorkers(t *testing.T) {
	for _, spec := range []Spec{faultedSpec(), faultedTradeoffSpec()} {
		refJSON, refRaw := renderFaulted(t, spec, 1)
		for _, workers := range []int{4, 8} {
			gotJSON, gotRaw := renderFaulted(t, spec, workers)
			if gotJSON != refJSON {
				t.Errorf("%s: report JSON diverges at workers=%d", spec.Workload, workers)
			}
			if gotRaw != refRaw {
				t.Errorf("%s: raw CSV diverges at workers=%d", spec.Workload, workers)
			}
		}
		if !strings.Contains(refJSON, `"fault": "sleep:0.01:w=4"`) ||
			!strings.Contains(refJSON, `"fault": "loss:0.05"`) {
			t.Errorf("%s: faulted report missing fault labels:\n%s", spec.Workload, refJSON)
		}
		// Only the broadcast family runs a fault-free twin and reports
		// its columns; tradeoff reports the fault counters alone.
		for _, col := range []string{"success", "informedFrac", "energyOverhead", "wastedAwake"} {
			got, want := strings.Contains(refJSON, `"name": "`+col+`"`), spec.Workload == "broadcast"
			if got != want {
				t.Errorf("%s: %s column present = %v, want %v", spec.Workload, col, got, want)
			}
		}
	}
}

// TestFaultCSVColumn checks the aggregate CSV gains a fault column only
// when a cell carries an active spec.
func TestFaultCSVColumn(t *testing.T) {
	rep, err := Run(faultedSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(csv.String(), "\n", 2)[0]
	if !strings.Contains(head, ",fault,") {
		t.Errorf("faulted CSV header lacks fault column: %s", head)
	}
	plain := goldenSpec("")
	rep2, err := Run(plain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	csv.Reset()
	if err := rep2.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if head := strings.SplitN(csv.String(), "\n", 2)[0]; strings.Contains(head, "fault") {
		t.Errorf("fault-free CSV header gained a fault column: %s", head)
	}
}

// TestFaultAxisValidation covers spec-level rejection: invalid specs
// fail up front, not per trial. Every workload, tradeoff included,
// accepts a valid spec.
func TestFaultAxisValidation(t *testing.T) {
	spec := goldenSpec("")
	spec.Faults = []fault.Spec{{Kind: "meteor", Rate: 0.1}}
	if _, err := NewRunner(spec); err == nil {
		t.Error("unknown fault kind accepted")
	}
	spec.Faults = []fault.Spec{{Kind: fault.Crash, Rate: 1.5}}
	if _, err := NewRunner(spec); err == nil {
		t.Error("out-of-range rate accepted")
	}
	spec = goldenSpec("tradeoff")
	spec.Faults = []fault.Spec{{Kind: fault.Loss, Rate: 0.1}}
	if _, err := NewRunner(spec); err != nil {
		t.Errorf("active faults rejected for the tradeoff workload: %v", err)
	}
	spec.Faults = []fault.Spec{{Kind: fault.Loss, Rate: 0}}
	if _, err := NewRunner(spec); err != nil {
		t.Errorf("inactive fault spec rejected: %v", err)
	}
}

// TestParseFault covers the CLI grid syntax.
func TestParseFault(t *testing.T) {
	fs, err := ParseFault("sleep:0.01,0.1:w=8")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0].Rate != 0.01 || fs[1].Rate != 0.1 ||
		fs[0].Kind != fault.Sleep || fs[0].Window != 8 || fs[1].Window != 8 {
		t.Errorf("parsed %+v", fs)
	}
	if fs[0].Label() != "sleep:0.01:w=8" {
		t.Errorf("label = %q", fs[0].Label())
	}
	if _, err := ParseFault("crash:0.001"); err != nil {
		t.Errorf("plain crash spec rejected: %v", err)
	}
	for _, bad := range []string{
		"crash", "crash:x", "crash:0.5:w=2", "loss:2", "sleep:0.1:v=3",
		"sleep:0.1:w=0", "meteor:0.1", "crash:0.1:w=2:x",
	} {
		if _, err := ParseFault(bad); err == nil {
			t.Errorf("ParseFault(%q) accepted", bad)
		}
	}
}

// TestFaultCellLabels checks the telemetry labels carry the fault suffix
// for active specs only.
func TestFaultCellLabels(t *testing.T) {
	spec := goldenSpec("")
	spec.Topologies = spec.Topologies[:1]
	spec.Models = spec.Models[:1]
	spec.Faults = []fault.Spec{{}, {Kind: fault.Crash, Rate: 0.001}}
	r, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	labels := r.CellLabels()
	if len(labels) != 2 {
		t.Fatalf("labels = %v", labels)
	}
	if strings.Contains(labels[0], "crash") {
		t.Errorf("inactive cell label gained a fault suffix: %q", labels[0])
	}
	if !strings.HasSuffix(labels[1], "/crash:0.001") {
		t.Errorf("active cell label lacks fault suffix: %q", labels[1])
	}
}
