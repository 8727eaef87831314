package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/sweep"
)

// journalSeedBytes builds a real two-batch journal through the
// production writer and returns its bytes — the honest seed the fuzzer
// mutates.
func journalSeedBytes(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.ckpt")
	h := header{
		Magic: journalMagic,
		Spec: sweep.Spec{
			Topologies: []sweep.Topology{{Kind: "path", N: 8}},
			MasterSeed: 42,
		},
		BatchSize:  4,
		MinTrials:  4,
		MaxTrials:  8,
		Confidence: 0.95,
		Measures:   []string{"slots"},
	}
	jw, err := createJournal(path, h, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		rec := &BatchRecord{Cell: 0, Lo: 4 * b, Hi: 4*b + 4, Completed: 4,
			Crashes: b, Moments: make([]stats.Moments, 4)}
		for i := range rec.Moments {
			rec.Moments[i].Add(float64(b + i + 1))
			rec.Moments[i].Add(float64(b + i + 2))
		}
		jw.queue(rec)
	}
	if err := jw.close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzJournalRead fuzzes the checkpoint frame parser with truncations,
// bit flips, and arbitrary bytes. The safety property is "detected +
// batch re-run, never wrong resume": journalRead either refuses the file
// or returns a trusted prefix whose batches all pass validation and
// whose re-read is bit-stable — a corrupted journal can cost re-running
// batches, but it can never smuggle an invalid batch into the merge.
func FuzzJournalRead(f *testing.F) {
	seed := journalSeedBytes(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-5]) // torn tail (SIGKILL mid-append)
	flip := append([]byte(nil), seed...)
	flip[len(flip)/2] ^= 0x40 // bit flip mid-journal
	f.Add(flip)
	f.Add(seed[:9]) // short header frame
	f.Add([]byte{})
	f.Add([]byte("not a journal at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jc, err := journalRead(path)
		if err != nil {
			return // detected: resume refuses the file outright
		}
		if jc.trusted < 0 || jc.trusted > int64(len(data)) {
			t.Fatalf("trusted offset %d outside [0, %d]", jc.trusted, len(data))
		}
		if jc.header.Magic != journalMagic {
			t.Fatalf("accepted journal with magic %q", jc.header.Magic)
		}
		for _, rec := range jc.batches {
			if verr := validateBatchRecord(rec); verr != nil {
				t.Fatalf("accepted invalid batch record: %v", verr)
			}
		}
		// The trusted prefix must re-read bit-stably with no torn tail:
		// that is the state openJournalAppend truncates to and the merge
		// replays from, so instability here would be a wrong resume.
		if err := os.WriteFile(path, data[:jc.trusted], 0o644); err != nil {
			t.Fatal(err)
		}
		jc2, err := journalRead(path)
		if err != nil {
			t.Fatalf("trusted prefix unreadable: %v", err)
		}
		if jc2.torn {
			t.Fatal("trusted prefix reports a torn tail")
		}
		if jc2.trusted != jc.trusted {
			t.Fatalf("trusted offset unstable: %d then %d", jc.trusted, jc2.trusted)
		}
		if !reflect.DeepEqual(jc2.header, jc.header) || !reflect.DeepEqual(jc2.batches, jc.batches) {
			t.Fatal("trusted prefix decodes differently on re-read")
		}
	})
}

// updateFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzJournalRead. Run with -update-fuzz-corpus after an
// intentional journal format change (and bump journalMagic).
var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "rewrite the committed journal fuzz corpus")

// TestFuzzSeedCorpus keeps the committed corpus in sync with the journal
// format: the corpus directory must exist (go test runs every committed
// entry through FuzzJournalRead even without -fuzz), and -update-fuzz-corpus
// regenerates it from the production writer.
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalRead")
	if *updateFuzzCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		seed := journalSeedBytes(t)
		torn := seed[:len(seed)-5]
		flip := append([]byte(nil), seed...)
		flip[len(flip)/2] ^= 0x40
		for name, data := range map[string][]byte{
			"journal-intact":    seed,
			"journal-torn-tail": torn,
			"journal-bitflip":   flip,
			"header-only":       seed[:9],
		} {
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
