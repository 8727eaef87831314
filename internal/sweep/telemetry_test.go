package sweep

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

func telemetrySpec() Spec {
	return Spec{
		Topologies: []Topology{{Kind: "clique", N: 6}, {Kind: "path", N: 8}},
		Trials:     24,
		MasterSeed: 7,
	}
}

// The manifest's deterministic fields — committed counts, labels, stop
// reasons — must be bit-identical for every worker count, and the report
// must be byte-identical with telemetry on or off (the attached event
// log is provenance, never part of the contract).
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	var wantDet []byte
	var wantReport []byte
	for _, workers := range []int{1, 4, 8} {
		rec := telemetry.New()
		lg, err := telemetry.CreateEventLog(filepath.Join(t.TempDir(), "events.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		rec.SetEventLog(lg)
		rep, err := Run(telemetrySpec(), Options{Workers: workers, Telemetry: rec})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if wantReport == nil {
			wantReport = buf.Bytes()
		} else if !bytes.Equal(wantReport, buf.Bytes()) {
			t.Errorf("workers=%d: report differs from workers=1", workers)
		}
		m := rec.BuildManifest("sweep", telemetrySpec(), nil, workers)
		det, err := m.DeterministicJSON()
		if err != nil {
			t.Fatal(err)
		}
		if wantDet == nil {
			wantDet = det
		} else if !bytes.Equal(wantDet, det) {
			t.Errorf("workers=%d: deterministic manifest differs:\n%s\nvs\n%s",
				workers, wantDet, det)
		}
	}
}

// Fixed sweeps commit every trial and mark every cell done; shard
// counters must agree with the matrix size.
func TestTelemetryCountsFixedSweep(t *testing.T) {
	rec := telemetry.New()
	spec := telemetrySpec()
	if _, err := Run(spec, Options{Workers: 3, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	total := uint64(2 * spec.Trials)
	if s.TrialsCommitted != total || s.TrialsRun != total {
		t.Fatalf("trials committed/run = %d/%d, want %d", s.TrialsCommitted, s.TrialsRun, total)
	}
	if s.SlotsSimulated == 0 {
		t.Fatal("no slots counted")
	}
	if s.BatchesInFlight != 0 {
		t.Fatalf("batches in flight after run = %d", s.BatchesInFlight)
	}
	if s.CellsDone != 2 || s.CellsTotal != 2 {
		t.Fatalf("cells %d/%d, want 2/2", s.CellsDone, s.CellsTotal)
	}
	if s.SimCache.Hits == 0 || s.SimCache.Misses == 0 {
		t.Fatalf("simulator-cache traffic not counted: %+v", s.SimCache)
	}
	for _, c := range rec.Cells() {
		if c.Trials != uint64(spec.Trials) || c.Stop != "done" {
			t.Fatalf("cell %d: trials=%d stop=%q", c.Cell, c.Trials, c.Stop)
		}
		if c.WallSeconds <= 0 {
			t.Fatalf("cell %d: wall=%v", c.Cell, c.WallSeconds)
		}
	}
}

func TestCellLabels(t *testing.T) {
	r, err := NewRunner(Spec{
		Topologies: []Topology{{Kind: "star", N: 6}},
		Workload:   "tradeoff",
		Lean:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := r.CellLabels()
	if len(labels) != len(r.Cells()) {
		t.Fatalf("labels %d, cells %d", len(labels), len(r.Cells()))
	}
	// tradeoff is parameterized, so the point label must ride along.
	if got := labels[0]; got != "star-6/No-CD/auto/beta=0.0625" {
		t.Fatalf("label = %q", got)
	}
}
