package sweep

import (
	"bytes"
	"encoding/csv"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/telemetry"
)

func rawSpec() Spec {
	return Spec{
		Topologies: []Topology{{Kind: "path", N: 8}, {Kind: "star", N: 9}},
		Models:     []radio.Model{radio.Local},
		Algorithms: []core.Algorithm{core.AlgoAuto},
		Trials:     12,
		MasterSeed: 7,
	}
}

// TestRawExportDeterministicAcrossWorkers pins the raw export contract:
// the per-trial CSV is byte-identical for every worker count, and with
// telemetry on or off, because rows are written from the (cell, trial)
// result matrix after the pool finishes.
func TestRawExportDeterministicAcrossWorkers(t *testing.T) {
	spec := rawSpec()
	var want []byte
	for _, run := range []struct {
		workers int
		rec     *telemetry.Recorder
	}{{1, nil}, {2, nil}, {7, nil}, {3, telemetry.New()}} {
		var buf bytes.Buffer
		if _, err := Run(spec, Options{Workers: run.workers, Raw: &buf, Telemetry: run.rec}); err != nil {
			t.Fatalf("workers=%d: %v", run.workers, err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("workers=%d telemetry=%v: raw export differs from single-worker export",
				run.workers, run.rec != nil)
		}
	}
}

// TestRawExportContent checks the row layout against the aggregate
// report: one row per (cell, trial) in order, with the seeds the
// positional derivation prescribes and an informed count consistent
// with completion.
func TestRawExportContent(t *testing.T) {
	spec := rawSpec()
	var buf bytes.Buffer
	rep, err := Run(spec, Options{Raw: &buf})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := "cell,trial,seed,slots,maxEnergy,totalEnergy,events,informed,completed,err"
	if got := strings.Join(rows[0], ","); got != wantHeader {
		t.Fatalf("header = %q, want %q", got, wantHeader)
	}
	body := rows[1:]
	if len(body) != len(rep.Cells)*spec.Trials {
		t.Fatalf("%d rows for %d cells x %d trials", len(body), len(rep.Cells), spec.Trials)
	}
	for i, row := range body {
		cell, trial := i/spec.Trials, i%spec.Trials
		if row[0] != strconv.Itoa(cell) || row[1] != strconv.Itoa(trial) {
			t.Fatalf("row %d is (%s,%s), want (%d,%d)", i, row[0], row[1], cell, trial)
		}
		wantSeed := strconv.FormatUint(TrialSeed(spec.MasterSeed, cell, trial), 10)
		if row[2] != wantSeed {
			t.Fatalf("row %d seed = %s, want %s", i, row[2], wantSeed)
		}
		informed, err := strconv.Atoi(row[7])
		if err != nil {
			t.Fatalf("row %d informed = %q", i, row[7])
		}
		n := rep.Cells[cell].N
		if row[8] == "true" && informed != n {
			t.Fatalf("row %d: completed but informed %d of %d", i, informed, n)
		}
		if informed < 1 || informed > n {
			t.Fatalf("row %d: informed %d outside [1, %d]", i, informed, n)
		}
	}
}

// brokenSink always errors, exercising the raw writer's error
// propagation.
type brokenSink struct{}

func (brokenSink) Write([]byte) (int, error) {
	return 0, errors.New("sink broke")
}

func TestRawExportWriteError(t *testing.T) {
	spec := rawSpec()
	_, err := Run(spec, Options{Workers: 4, Raw: brokenSink{}})
	if err == nil || !strings.Contains(err.Error(), "raw export") {
		t.Fatalf("want raw export error, got %v", err)
	}
}
