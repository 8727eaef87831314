package experiment

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// leaseConfig is a small journaled run on the shared test matrix: two
// cells, 20-trial batches.
func leaseConfig(t *testing.T, targetRelCI float64) Config {
	return Config{
		Spec:        testSpec(),
		BatchSize:   20,
		MinTrials:   20,
		MaxTrials:   200,
		TargetRelCI: targetRelCI,
		Measures:    []string{"slots", "maxEnergy"},
		Checkpoint:  filepath.Join(t.TempDir(), "run.ckpt"),
	}
}

// execute runs a lease the way a worker does and folds it into a record.
func execute(lc *LeaseController, l Lease) *BatchRecord {
	buf := make([]sweep.Trial, l.Hi-l.Lo)
	lc.Runner().RunBatch(l.Cell, l.Lo, l.Hi, &radio.SimCache{}, nil, buf)
	return FoldBatch(TrackedMeasures(lc.Runner(), l.Cell), l.Cell, l.Lo, l.Hi, buf)
}

// journaled closes lc and returns the batch records its journal holds.
func journaled(t *testing.T, lc *LeaseController) []BatchRecord {
	t.Helper()
	if err := lc.Close(); err != nil {
		t.Fatal(err)
	}
	jc, err := journalRead(lc.Config().Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return jc.batches
}

func TestAdmitDuplicateNotJournaled(t *testing.T) {
	lc, err := NewLeaseController(leaseConfig(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	l, ok := lc.Next()
	if !ok {
		t.Fatal("no lease issued")
	}
	rec := execute(lc, l)
	if fresh, err := lc.Admit(rec); !fresh || err != nil {
		t.Fatalf("first admit: fresh=%v err=%v", fresh, err)
	}
	if fresh, err := lc.Admit(rec); fresh || err != nil {
		t.Fatalf("duplicate admit: fresh=%v err=%v, want false, nil", fresh, err)
	}
	if got := journaled(t, lc); len(got) != 1 || got[0].Cell != l.Cell || got[0].Lo != l.Lo {
		t.Fatalf("journal holds %+v, want exactly the one admitted batch", got)
	}
	if p := lc.Progress(); p.CommittedTrials != l.Hi-l.Lo {
		t.Fatalf("committed %d trials, want %d", p.CommittedTrials, l.Hi-l.Lo)
	}
}

func TestReleasedLeaseReissued(t *testing.T) {
	lc, err := NewLeaseController(leaseConfig(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	first, _ := lc.Next()
	second, _ := lc.Next()
	if second == first {
		t.Fatalf("lease %+v issued twice while in flight", first)
	}
	lc.Release(first)
	if again, ok := lc.Next(); !ok || again != first {
		t.Fatalf("after release Next = %+v (ok=%v), want %+v", again, ok, first)
	}
}

func TestAdmitPastStopPointDropped(t *testing.T) {
	// A loose target stops each cell on its first merged batch, so a
	// speculatively issued second batch lands past the stop point.
	lc, err := NewLeaseController(leaseConfig(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	var head, spec Lease
	for i := 0; i < 3; i++ {
		l, ok := lc.Next()
		if !ok {
			t.Fatal("no lease issued")
		}
		if l.Cell == 0 && l.Lo == 0 {
			head = l
		} else if l.Cell == 0 {
			spec = l
		}
	}
	if spec.Hi == 0 {
		t.Fatal("no speculative second batch issued for cell 0")
	}
	if fresh, err := lc.Admit(execute(lc, head)); !fresh || err != nil {
		t.Fatalf("head batch: fresh=%v err=%v", fresh, err)
	}
	if fresh, err := lc.Admit(execute(lc, spec)); fresh || err != nil {
		t.Fatalf("batch past the stop point: fresh=%v err=%v, want false, nil", fresh, err)
	}
	c := lc.Report().Cells[0]
	if c.Stop != "ci" || c.Trials != head.Hi-head.Lo {
		t.Fatalf("cell 0: stop %q after %d trials, want ci after %d", c.Stop, c.Trials, head.Hi-head.Lo)
	}
	if got := journaled(t, lc); len(got) != 1 {
		t.Fatalf("journal holds %d records, want 1", len(got))
	}
}

func TestAdmitRejectsBadRecords(t *testing.T) {
	lc, err := NewLeaseController(leaseConfig(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	moments := make([]stats.Moments, len(TrackedMeasures(lc.Runner(), 0)))
	for _, rec := range []*BatchRecord{
		{Cell: 2, Lo: 0, Hi: 20, Moments: moments},  // out-of-range cell
		{Cell: -1, Lo: 0, Hi: 20, Moments: moments}, // out-of-range cell
		{Cell: 0, Lo: 5, Hi: 25, Moments: moments},  // off the batch grid
		{Cell: 0, Lo: 0, Hi: 10, Moments: moments},  // off the batch grid
	} {
		if fresh, err := lc.Admit(rec); fresh || err == nil {
			t.Errorf("cell %d [%d,%d): fresh=%v err=%v, want an error", rec.Cell, rec.Lo, rec.Hi, fresh, err)
		}
	}
	if got := journaled(t, lc); len(got) != 0 {
		t.Fatalf("rejected records journaled: %+v", got)
	}
}

// A submitted record keeps its batch journaling until Commit takes its
// group: a twin of it is not fresh and never reaches the journal, Next
// never reissues the batch, and releasing its lease leaves it
// journaling.
func TestJournalingBatchNotReissued(t *testing.T) {
	cfg := leaseConfig(t, 0)
	cfg.MaxTrials = 40 // two batches per cell
	lc, err := NewLeaseController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := lc.Next()
	if !ok {
		t.Fatal("no lease issued")
	}
	if fresh, err := lc.Submit(execute(lc, l)); !fresh || err != nil {
		t.Fatalf("submit: fresh=%v err=%v", fresh, err)
	}
	if fresh, err := lc.Submit(execute(lc, l)); fresh || err != nil {
		t.Fatalf("twin of a journaling record: fresh=%v err=%v, want false, nil", fresh, err)
	}
	lc.Release(l)
	issued := 0
	for {
		n, ok := lc.Next()
		if !ok {
			break
		}
		if n == l {
			t.Fatalf("journaling batch %+v reissued", l)
		}
		issued++
	}
	if issued != 3 {
		t.Fatalf("issued %d other leases, want 3", issued)
	}
	if n := lc.Journaling(); n != 1 {
		t.Fatalf("%d records journaling, want 1", n)
	}
	if err := lc.Commit(<-lc.Synced()); err != nil {
		t.Fatal(err)
	}
	if n := lc.Journaling(); n != 0 {
		t.Fatalf("%d records journaling after commit, want 0", n)
	}
	if p := lc.Progress(); p.CommittedTrials != l.Hi-l.Lo {
		t.Fatalf("committed %d trials, want %d", p.CommittedTrials, l.Hi-l.Lo)
	}
	if got := journaled(t, lc); len(got) != 1 || got[0].Cell != l.Cell || got[0].Lo != l.Lo {
		t.Fatalf("journal holds %+v, want the batch once", got)
	}
}

// A record whose cell stops while it waits for its fsync is journaled
// but dropped at commit, never merged, and resuming that journal
// reproduces the live run's report byte for byte.
func TestCommitDropsRecordPastStop(t *testing.T) {
	// A loose target stops each cell on its first merged batch.
	cfg := leaseConfig(t, 10)
	lc, err := NewLeaseController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var head, spec Lease
	var others []Lease
	for i := 0; i < 3; i++ {
		l, ok := lc.Next()
		if !ok {
			t.Fatal("no lease issued")
		}
		switch {
		case l.Cell == 0 && l.Lo == 0:
			head = l
		case l.Cell == 0:
			spec = l
		default:
			others = append(others, l)
		}
	}
	if spec.Hi == 0 {
		t.Fatal("no speculative second batch issued for cell 0")
	}
	for _, l := range []Lease{head, spec} {
		if fresh, err := lc.Submit(execute(lc, l)); !fresh || err != nil {
			t.Fatalf("submit %+v: fresh=%v err=%v", l, fresh, err)
		}
	}
	for lc.Journaling() > 0 {
		if err := lc.Commit(<-lc.Synced()); err != nil {
			t.Fatal(err)
		}
	}
	c := lc.Report().Cells[0]
	if c.Stop != "ci" || c.Trials != head.Hi-head.Lo || c.Batches != 1 {
		t.Fatalf("cell 0: stop %q after %d trials in %d batches, want ci after %d in 1",
			c.Stop, c.Trials, c.Batches, head.Hi-head.Lo)
	}
	for _, l := range others {
		if _, err := lc.Admit(execute(lc, l)); err != nil {
			t.Fatal(err)
		}
	}
	for !lc.Done() {
		l, ok := lc.Next()
		if !ok {
			t.Fatal("run not done and no lease issuable")
		}
		if _, err := lc.Admit(execute(lc, l)); err != nil {
			t.Fatal(err)
		}
	}
	want := reportJSON(t, lc.Report())
	found := false
	for _, rec := range journaled(t, lc) {
		found = found || rec.Cell == spec.Cell && rec.Lo == spec.Lo
	}
	if !found {
		t.Fatalf("dropped record %+v not journaled", spec)
	}
	rep, err := Resume(cfg.Checkpoint, ResumeConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs:\n%s\nvs\n%s", got, want)
	}
}

// A journal write failure, injected by closing the controller's file,
// ends Admit and a local run with that error, and nothing of its group
// merges.
func TestJournalWriteErrorEndsRun(t *testing.T) {
	lc, err := NewLeaseController(leaseConfig(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	lc.jw.f.Close()
	l, _ := lc.Next()
	if fresh, err := lc.Admit(execute(lc, l)); fresh || !errors.Is(err, os.ErrClosed) {
		t.Fatalf("admit on a closed journal: fresh=%v err=%v, want false and a closed-file error", fresh, err)
	}
	if p := lc.Progress(); p.CommittedTrials != 0 {
		t.Fatalf("committed %d trials of a failed group", p.CommittedTrials)
	}
	lc.Close()

	cfg := testConfig()
	cfg.Checkpoint = filepath.Join(t.TempDir(), "run.ckpt")
	cfg.Workers = 4
	lc, err = NewLeaseController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lc.jw.f.Close()
	if _, err := runLocal(lc); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("run on a closed journal returned %v, want a closed-file error", err)
	}
	if p := lc.Progress(); p.CommittedTrials != 0 {
		t.Fatalf("committed %d trials after a journal write failure", p.CommittedTrials)
	}
}
