package fabric

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/radio"
	"repro/internal/sweep"
)

// firstLease builds a fresh controller over fixedConfig, with progress
// reported to progress, and takes the first lease it issues.
func firstLease(tb testing.TB, progress func(experiment.Progress)) (*experiment.LeaseController, experiment.Lease) {
	tb.Helper()
	cfg := fixedConfig()
	cfg.Progress = progress
	lc, err := experiment.NewLeaseController(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	l, ok := lc.Next()
	if !ok {
		tb.Fatal("a fresh controller issued no lease")
	}
	return lc, l
}

// frameSeeds builds the fuzzer's seed frames through writeMsg: the
// result a worker sends for the first lease, that result with three
// measures where the cell tracks four and with negative counters, the
// valid frame cut short, and a header claiming more than maxFrame.
func frameSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	lc, l := firstLease(tb, nil)
	defer lc.Close()
	runner := lc.Runner()
	buf := make([]sweep.Trial, l.Hi-l.Lo)
	runner.RunBatch(l.Cell, l.Lo, l.Hi, &radio.SimCache{}, nil, buf)
	valid := experiment.FoldBatch(experiment.TrackedMeasures(runner, l.Cell), l.Cell, l.Lo, l.Hi, buf)
	frame := func(br *experiment.BatchRecord) []byte {
		var b bytes.Buffer
		if err := writeMsg(&b, &msg{Type: msgResult, Result: br}); err != nil {
			tb.Fatal(err)
		}
		return b.Bytes()
	}
	short := *valid
	short.Moments = short.Moments[:3]
	negative := *valid
	negative.Errors, negative.Crashes = -1, -2
	good := frame(valid)
	huge := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	return map[string][]byte{
		"result-valid":             good,
		"result-3-measures":        frame(&short),
		"result-negative-counters": frame(&negative),
		"result-truncated":         good[:len(good)/2],
		"frame-over-max":           append(huge, good[4:]...),
	}
}

// FuzzFabricFrame feeds arbitrary bytes to the frame reader and sends
// every result frame it decodes through the coordinator's own checks
// (admitResult: held lease, Validate, Submit) against the first lease
// of a fresh controller. A malformed frame may cost its sender the
// connection, never the run: nothing panics, Submit fails only with
// ErrBadRecord (which evicts the sender), and every record it admits
// passes Validate.
func FuzzFabricFrame(f *testing.F) {
	seeds := frameSeeds(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMsg(bytes.NewReader(data))
		if err != nil || m.Type != msgResult {
			return // the reader loop reports the worker gone
		}
		admitted := false
		lc, l := firstLease(t, func(experiment.Progress) { admitted = true })
		defer lc.Close()
		held := map[experiment.Lease]time.Time{l: time.Now()}
		why, err := admitResult(lc, nil, held, m.Result)
		if err != nil {
			t.Fatalf("a worker's record ended the run: %v", err)
		}
		if !admitted {
			return
		}
		if why != "" {
			t.Fatalf("admitted a record and evicted its sender: %s", why)
		}
		if verr := m.Result.Validate(); verr != nil {
			t.Fatalf("admitted a record that fails Validate: %v", verr)
		}
	})
}

// updateFrameCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzFabricFrame. Run with -update-fuzz-corpus after an
// intentional wire or batch record change.
var updateFrameCorpus = flag.Bool("update-fuzz-corpus", false, "rewrite the committed fabric frame fuzz corpus")

// TestFrameFuzzCorpus keeps the committed corpus next to the fuzz
// target: go test runs every committed entry through FuzzFabricFrame
// even without -fuzz, and -update-fuzz-corpus regenerates it from
// writeMsg.
func TestFrameFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzFabricFrame")
	if *updateFrameCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range frameSeeds(t) {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %s", dir)
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("committed fuzz corpus missing at %s (regenerate with -update-fuzz-corpus): %v", dir, err)
	}
}
