package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func parse(t *testing.T, args ...string) *Matrix {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	m := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFixedRunSpendsTrials pins the fixed-run rule both CLIs share:
// without -ci every cell runs -trials trials, whatever -max-trials
// says; with -ci, -max-trials is the cap.
func TestFixedRunSpendsTrials(t *testing.T) {
	base := []string{"-topo", "path:8", "-trials", "20", "-max-trials", "40", "-batch", "10", "-checkpoint", "c.ckpt"}
	for _, tc := range []struct {
		extra []string
		want  int
	}{
		{nil, 20},
		{[]string{"-ci", "0.01"}, 40},
	} {
		m := parse(t, append(base, tc.extra...)...)
		if err := m.Validate(nil); err != nil {
			t.Fatal(err)
		}
		cfg, err := m.Build()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.MaxTrials != tc.want || cfg.Spec.Trials != 20 || cfg.BatchSize != 10 || cfg.Checkpoint != "c.ckpt" {
			t.Errorf("%v: MaxTrials=%d Spec.Trials=%d BatchSize=%d Checkpoint=%q, want MaxTrials=%d",
				tc.extra, cfg.MaxTrials, cfg.Spec.Trials, cfg.BatchSize, cfg.Checkpoint, tc.want)
		}
		if meta := MetaOf(cfg); meta.MaxTrials != tc.want {
			t.Errorf("%v: manifest MaxTrials=%d, want %d", tc.extra, meta.MaxTrials, tc.want)
		}
	}
}

func TestBuildParsesMatrix(t *testing.T) {
	m := parse(t, "-topo", "path:8,16", "-models", "local,cd", "-fault", "loss:0.1",
		"-seed", "9", "-ci", "0.05", "-max-trials", "100", "-ci-measure", " slots, ,maxEnergy ")
	cfg, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := cfg.Spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 || cfg.Spec.MasterSeed != 9 {
		t.Fatalf("%d cells, seed %d; want 4 cells, seed 9", len(cells), cfg.Spec.MasterSeed)
	}
	if got := strings.Join(cfg.Measures, ","); got != "slots,maxEnergy" {
		t.Fatalf("measures = %q", got)
	}
	if _, err := parse(t, "-topo", "path:8", "-workload", "nosuch").Build(); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		outputs [][2]string
		want    string
	}{
		{[]string{"-topo", "path:8", "-trials", "0"}, nil, "-trials must be positive"},
		{[]string{"-topo", "path:8", "-ci", "0.1"}, nil, "-ci requires -max-trials"},
		{[]string{"-topo", "path:8", "-ci", "-1"}, nil, "-ci must be non-negative"},
		{nil, nil, "at least one -topo"},
		{[]string{"-resume", "r.ckpt", "-seed", "3"}, nil, "drop the conflicting flags: -seed"},
		{[]string{"-topo", "path:8"}, [][2]string{{"json", "x"}, {"manifest", "x"}}, "-json and -manifest both write to x"},
	} {
		err := parse(t, tc.args...).Validate(tc.outputs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
	if err := parse(t, "-resume", "r.ckpt").Validate(nil); err != nil {
		t.Errorf("bare -resume rejected: %v", err)
	}
}
