package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

func telemetryConfig() Config {
	return Config{
		Spec: sweep.Spec{
			Topologies: []sweep.Topology{{Kind: "clique", N: 6}, {Kind: "path", N: 8}},
			MasterSeed: 11,
		},
		BatchSize:   10,
		MinTrials:   20,
		MaxTrials:   400,
		TargetRelCI: 0.02,
		Measures:    []string{"maxEnergy"},
	}
}

// Adaptive convergence traces are coordinator prefix-merge products, so
// the manifest's deterministic subset — committed counts, stop reasons,
// and every trace point including its relative CI values — must be
// bit-identical for any worker count.
func TestAdaptiveTelemetryDeterministicAcrossWorkers(t *testing.T) {
	var want []byte
	var wantReport []byte
	for _, workers := range []int{1, 4, 8} {
		rec := telemetry.New()
		lg, err := telemetry.CreateEventLog(filepath.Join(t.TempDir(), "events.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		rec.SetEventLog(lg)
		cfg := telemetryConfig()
		cfg.Workers = workers
		cfg.Telemetry = rec
		rep, err := Run(cfg)
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
		m := rec.BuildManifest("sweep", cfg.Spec, nil, workers)
		det, err := m.DeterministicJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantReport = det, buf.Bytes()
			continue
		}
		if !bytes.Equal(wantReport, buf.Bytes()) {
			t.Errorf("workers=%d: report differs", workers)
		}
		if !bytes.Equal(want, det) {
			t.Errorf("workers=%d: deterministic manifest differs:\n%s\nvs\n%s", workers, want, det)
		}
	}
}

// Trace shape: one point per committed batch, relCI per targeted
// measure; committed trials may lag trials run (speculation).
func TestAdaptiveTelemetryTraces(t *testing.T) {
	rec := telemetry.New()
	cfg := telemetryConfig()
	cfg.Workers = 4
	cfg.Telemetry = rec
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := rec.Cells()
	if len(cells) != len(rep.Cells) {
		t.Fatalf("telemetry cells = %d, report cells = %d", len(cells), len(rep.Cells))
	}
	s := rec.Snapshot()
	if s.TrialsRun < s.TrialsCommitted {
		t.Fatalf("trials run %d < committed %d", s.TrialsRun, s.TrialsCommitted)
	}
	if int(s.TrialsCommitted) != rep.TotalTrials {
		t.Fatalf("committed %d, report total %d", s.TrialsCommitted, rep.TotalTrials)
	}
	for i, c := range cells {
		batches := rep.Cells[i].Batches
		if len(c.Trace) != batches {
			t.Fatalf("cell %d: %d trace points, %d committed batches", i, len(c.Trace), batches)
		}
		if c.Stop != rep.Cells[i].Stop {
			t.Fatalf("cell %d: telemetry stop %q, report stop %q", i, c.Stop, rep.Cells[i].Stop)
		}
		for j, pt := range c.Trace {
			if pt.Batch != j {
				t.Fatalf("cell %d trace[%d]: batch %d", i, j, pt.Batch)
			}
			if len(pt.RelCI) != 1 {
				t.Fatalf("cell %d trace[%d]: %d relCI values, want 1", i, j, len(pt.RelCI))
			}
		}
		last := c.Trace[len(c.Trace)-1]
		if last.Trials != rep.Cells[i].Trials {
			t.Fatalf("cell %d: final trace trials %d, report %d", i, last.Trials, rep.Cells[i].Trials)
		}
	}
}

// Every journaled batch record is counted once, by the fsync of the
// group it was committed in; a resumed run's traces rebuild identically
// to the uninterrupted run's.
func TestTelemetryJournalAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")

	rec := telemetry.New()
	cfg := telemetryConfig()
	cfg.Workers = 2
	cfg.Checkpoint = ckpt
	cfg.Telemetry = rec
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	jc, err := journalRead(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if int(s.JournalRecords) != len(jc.batches) {
		t.Fatalf("journaled records %d, journal batches %d", s.JournalRecords, len(jc.batches))
	}
	if s.JournalFsyncs < 1 || s.JournalFsyncs > s.JournalRecords {
		t.Fatalf("%d fsyncs for %d journaled records, want 1 to %d", s.JournalFsyncs, s.JournalRecords, s.JournalRecords)
	}
	m1 := rec.BuildManifest("sweep", cfg.Spec, nil, 2)
	det1, err := m1.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}

	// A full journal resumes to the same report and the same
	// deterministic telemetry, with zero fresh fsyncs.
	rec2 := telemetry.New()
	rep2, err := Resume(ckpt, ResumeConfig{Workers: 3, Telemetry: rec2})
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := rep.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := rep2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("resumed report differs from uninterrupted run")
	}
	if s2 := rec2.Snapshot(); s2.JournalFsyncs != 0 || s2.JournalRecords != 0 {
		t.Fatalf("resume of a complete journal made %d fsyncs for %d records", s2.JournalFsyncs, s2.JournalRecords)
	}
	m2 := rec2.BuildManifest("sweep", cfg.Spec, nil, 3)
	det2, err := m2.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(det1, det2) {
		t.Fatalf("resumed deterministic manifest differs:\n%s\nvs\n%s", det1, det2)
	}
	// Replay shows up as its own phase on the resumed recorder.
	found := false
	for _, p := range m2.Phases {
		if p.Name == "replay" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no replay phase in %+v", m2.Phases)
	}
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
}
