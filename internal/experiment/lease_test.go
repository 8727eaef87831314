package experiment

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
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

// The untraced stop rule tests a lower bound before the exact critical
// value; its decision must be the exact rule's — a measure is on target
// iff it has two observations and its relative half-width is not above
// the target — on random moment states, at targets placed around the
// bound and the exact width, and on the edge cases: no, one and two
// observations, zero spread, zero and negative means, and counts past
// the bound's range. Memoized critical values equal TQuantile's bit for
// bit.
func TestStopRuleMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var states []stats.Moments
	for range 300 {
		var m stats.Moments
		scale := math.Pow(10, float64(r.Intn(9)-4))
		shift := (r.Float64() - 0.3) * 10 * scale
		for range 2 + r.Intn(60) {
			m.Add(shift + r.NormFloat64()*scale)
		}
		states = append(states, m)
	}
	var one, two, flat, zeroMean stats.Moments
	one.Add(4)
	two.Add(4)
	two.Add(5)
	for range 10 {
		flat.Add(7)
	}
	zeroMean.Add(-2)
	zeroMean.Add(2)
	states = append(states, stats.Moments{}, one, two, flat, zeroMean,
		stats.Moments{N: 3, Mean: -5, M2: 0.5, Min: -5.5, Max: -4.5},
		stats.Moments{N: 40, Mean: 100, M2: 0, Min: 100, Max: 100},
		stats.Moments{N: 1_000_000, Mean: 12, M2: 3e6, Min: 0, Max: 30},
		stats.Moments{N: 1<<24 + 1, Mean: -12, M2: 5e7, Min: -40, Max: 0},
		stats.Moments{N: 1 << 24, Mean: 12, M2: 5e7, Min: 0, Max: 40},
		stats.Moments{N: 1 << 40, Mean: 12, M2: 3e12, Min: 0, Max: 30})

	for _, conf := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.3, 0.99995} {
		cfg := testConfig()
		cfg.Confidence = conf
		lc, err := NewLeaseController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range states {
			m := &states[i]
			exact := stats.TQuantile(m.N-1, conf)
			if got := lc.crit(m.N); math.Float64bits(got) != math.Float64bits(exact) {
				t.Fatalf("conf %v N %d: memoized critical value %v, TQuantile %v", conf, m.N, got, exact)
			}
			if got := lc.crit(m.N); math.Float64bits(got) != math.Float64bits(exact) {
				t.Fatalf("conf %v N %d: memo hit returned %v, TQuantile %v", conf, m.N, got, exact)
			}
			_, rel := m.Interval(exact)
			_, low := m.Interval(stats.TQuantileFloor(m.N-1, conf))
			targets := []float64{rel, low, (rel + low) / 2, math.Nextafter(rel, 0),
				math.Nextafter(rel, math.Inf(1)), math.Nextafter(low, 0), rel * 2, rel / 2, 1e-300, 1e300}
			for _, target := range targets {
				if !(target > 0) || math.IsInf(target, 0) {
					continue
				}
				lc.cfg.TargetRelCI = target
				want := m.N >= 2 && !(rel > target)
				if got := lc.onTarget(m); got != want {
					t.Errorf("conf %v target %v %+v: onTarget %v, exact rule %v (rel %v, bound %v)",
						conf, target, *m, got, want, rel, low)
				}
			}
		}
	}
}

// An untraced run of the adaptive-ckpt benchmark spec decides almost
// every merged batch from the bound alone: it computes a Student-t
// critical value a few times per cell, not once per merged batch.
func TestUntracedStopRuleRarelyExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~30k trials")
	}
	cfg := Config{
		Spec: sweep.Spec{
			Topologies: []sweep.Topology{
				{Kind: "clique", N: 8}, {Kind: "clique", N: 12},
				{Kind: "path", N: 16}, {Kind: "path", N: 24},
			},
			Models:     []radio.Model{radio.NoCD},
			Algorithms: []core.Algorithm{core.AlgoBaselineDecay},
			MasterSeed: 1,
		},
		BatchSize:   20,
		MinTrials:   40,
		MaxTrials:   200000,
		TargetRelCI: 0.001,
		Measures:    []string{"maxEnergy"},
		Workers:     2,
	}
	lc, err := NewLeaseController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := 0
	lc.cfg.Progress = func(Progress) { merged++ }
	rep, err := runLocal(lc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Stop != "ci" {
			t.Fatalf("cell %s stopped on %q, want ci", c.Graph, c.Stop)
		}
	}
	cells := len(rep.Cells)
	t.Logf("%d merged batches, %d critical values computed over %d cells", merged, len(lc.crits), cells)
	if len(lc.crits) > 3*cells {
		t.Errorf("computed %d critical values for %d merged batches over %d cells, want at most %d",
			len(lc.crits), merged, cells, 3*cells)
	}
}
