package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// shrink cuts a workload to a few trials, keeping its shape.
func shrink(w workload) workload {
	if w.trials > 0 {
		w.trials, w.traceTrials, w.traceBatch, w.scaleTrials = 2, 2, 1, 1
	} else {
		w.ci, w.scaleTrials = 0.02, 20
	}
	return w
}

// TestSmoke runs the timed and the traced pass of every workload at
// shrunk sizes through freshly built CLIs. Every metric BENCHMARK.json
// names must come out with its unit, and every report must match: the
// CLI runs against the in-process reference, and in the traced pass the
// lease loop, sweep and sweepd against each other.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the harness has %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	b, err := buildCLIs("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := shrink(w)
		t.Run(w.name, func(t *testing.T) {
			pc := passConfig{seed: 3, minRuns: 2, setupCalls: 5, batchWidth: 2, minSamples: 2, minPairs: 1,
				layerBudget: 10 * time.Millisecond, work: t.TempDir(), traceDir: t.TempDir()}
			timed, err := timedPass(w, b, pc)
			if err != nil {
				t.Fatal(err)
			}
			checkPass(t, timed, bf.EndToEnd)
			traced, err := tracePass(w, b, pc)
			if err != nil {
				t.Fatal(err)
			}
			checkPass(t, traced, bf.PerLayer)
			digests := traced.detail["digests"].(map[string]string)
			if len(digests) != 6 {
				t.Errorf("traced pass compared %d reports, want 6", len(digests))
			}
			for name, d := range digests {
				if d != digests["lease_loop"] {
					t.Errorf("%s report %s, lease loop %s", name, d, digests["lease_loop"])
				}
			}
			if _, err := os.Stat(filepath.Join(pc.traceDir, "trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}

func checkPass(t *testing.T, p *passResult, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, pr := range p.problems {
		t.Errorf("check failed: %s", pr)
	}
	if p.attempted == 0 || p.failed != 0 {
		t.Errorf("%d of %d trials failed", p.failed, p.attempted)
	}
	got, err := p.results()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("pass emits %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, m := range want {
		if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %q", m.Name, v, m.Unit)
		}
	}
}
