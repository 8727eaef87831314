package telemetry

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// readEvents parses a JSONL event log back into documents, failing on
// any line that is not valid JSON or lacks the reserved keys.
func readEvents(t *testing.T, path string) []map[string]any {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var docs []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var doc map[string]any
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		kind, _ := doc["event"].(string)
		if kind == "" {
			t.Fatalf("event line %q lacks kind", sc.Text())
		}
		ts, _ := doc["t"].(string)
		if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
			t.Fatalf("event line %q timestamp: %v", sc.Text(), err)
		}
		docs = append(docs, doc)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return docs
}

// Driving the recorder's lifecycle hooks with an event log attached
// must leave one well-formed JSON line per event, covering every kind
// the engines emit.
func TestEventLogLifecycleKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	lg, err := CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.SetEventLog(lg)
	r.StartCells([]string{"a"})
	r.Phase("resolve")
	r.Phase("trials")
	r.CommitTrials(0, 10) // first commit => cell-start + batch-commit
	r.CommitTrials(0, 5)
	r.JournalFsync(3, time.Microsecond)
	r.CellDone(0, "done")
	r.CellDone(0, "again") // duplicate: no second cell-stop
	r.Event("worker-join", map[string]any{"worker": "w1", "addr": "1.2.3.4:5", "version": "v", "capacity": 4})
	r.Event("lease-grant", map[string]any{"worker": "w1", "cell": 0, "lo": 0, "hi": 16})
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	docs := readEvents(t, path)
	byKind := map[string]int{}
	for _, d := range docs {
		byKind[d["event"].(string)]++
	}
	want := map[string]int{
		"phase":            2,
		"cell-start":       1,
		"batch-commit":     2,
		"checkpoint-fsync": 1,
		"cell-stop":        1,
		"worker-join":      1,
		"lease-grant":      1,
	}
	for kind, n := range want {
		if byKind[kind] != n {
			t.Fatalf("kind %q: %d events, want %d (all: %v)", kind, byKind[kind], n, byKind)
		}
	}
	// Spot-check payload fields survive round-trip.
	for _, d := range docs {
		switch d["event"] {
		case "batch-commit":
			if d["cell"].(float64) != 0 || d["trials"].(float64) == 0 {
				t.Fatalf("batch-commit payload = %v", d)
			}
		case "checkpoint-fsync":
			if d["records"].(float64) != 3 {
				t.Fatalf("checkpoint-fsync payload = %v", d)
			}
		case "cell-stop":
			if d["reason"] != "done" {
				t.Fatalf("cell-stop payload = %v", d)
			}
		case "worker-join":
			if d["addr"] != "1.2.3.4:5" || d["capacity"].(float64) != 4 {
				t.Fatalf("worker-join payload = %v", d)
			}
		}
	}
}

// Reserved keys in caller fields must not clobber the envelope.
func TestEventLogReservedKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	lg, err := CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	lg.Event("real-kind", map[string]any{"event": "spoofed", "t": "not-a-time", "x": 1})
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	docs := readEvents(t, path)
	if len(docs) != 1 || docs[0]["event"] != "real-kind" || docs[0]["x"].(float64) != 1 {
		t.Fatalf("docs = %v", docs)
	}
}

// A write failure goes quiet (advisory) but surfaces from Close.
func TestEventLogStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	lg, err := CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	lg.f.Close() // force the next write to fail
	lg.Event("x", nil)
	lg.Event("y", nil) // must not panic after the sticky error
	if err := lg.Close(); err == nil {
		t.Fatal("Close did not surface the write error")
	}
}

// Fleet aggregation: shipped worker snapshots sum into the recorder's
// own Snapshot, eviction flags (but retains) a worker, and a redial
// resumes the same entry monotonically.
func TestFleetAggregation(t *testing.T) {
	r := New()
	r.StartCells([]string{"a"})
	r.CommitTrials(0, 30) // committed counts stay coordinator-side

	mkSnap := func(run, slots uint64, inflight int64) Snapshot {
		var h Histogram
		h.Observe(time.Millisecond)
		return Snapshot{
			TrialsRun: run, SlotsSimulated: slots, BatchesInFlight: inflight,
			SimCache:  CacheCounts{Hits: run},
			Latencies: map[string]HistogramSnapshot{LatencyBatch: h.Snapshot()},
		}
	}
	r.WorkerSeen("b-worker", "10.0.0.2:1", "v1")
	r.WorkerShard("b-worker", mkSnap(20, 2000, 1))
	r.WorkerSeen("a-worker", "10.0.0.1:1", "v1")
	r.WorkerShard("a-worker", mkSnap(10, 1000, 2))

	s := r.Snapshot()
	if s.TrialsRun != 30 || s.SlotsSimulated != 3000 || s.BatchesInFlight != 3 {
		t.Fatalf("fleet totals = run %d slots %d inflight %d", s.TrialsRun, s.SlotsSimulated, s.BatchesInFlight)
	}
	if s.TrialsCommitted != 30 {
		t.Fatalf("committed = %d, want 30 (coordinator-side only)", s.TrialsCommitted)
	}
	if s.SimCache.Hits != 30 {
		t.Fatalf("cache hits = %d, want 30", s.SimCache.Hits)
	}
	if s.Latencies[LatencyBatch].Count != 2 {
		t.Fatalf("merged batch histogram count = %d, want 2", s.Latencies[LatencyBatch].Count)
	}
	ws := r.FleetWorkers()
	if len(ws) != 2 || ws[0].Name != "a-worker" || ws[1].Name != "b-worker" {
		t.Fatalf("fleet = %+v", ws)
	}
	if ws[0].Addr != "10.0.0.1:1" || ws[0].Version != "v1" {
		t.Fatalf("worker identity = %+v", ws[0])
	}

	// Eviction: entry flagged stale, counters retained, gauge dropped.
	r.WorkerGone("a-worker")
	ws = r.FleetWorkers()
	if !ws[0].Stale || ws[0].Snapshot.TrialsRun != 10 {
		t.Fatalf("evicted worker = %+v", ws[0])
	}
	s = r.Snapshot()
	if s.TrialsRun != 30 {
		t.Fatalf("post-eviction trials run = %d, want 30 (retained)", s.TrialsRun)
	}
	if s.BatchesInFlight != 1 {
		t.Fatalf("post-eviction inflight = %d, want 1 (stale gauge dropped)", s.BatchesInFlight)
	}

	// Redial: same name rejoins, stale clears, counters resume above the
	// old values (the worker process kept its recorder).
	r.WorkerSeen("a-worker", "10.0.0.1:2", "v1")
	r.WorkerShard("a-worker", mkSnap(15, 1500, 0))
	ws = r.FleetWorkers()
	if ws[0].Stale || ws[0].Addr != "10.0.0.1:2" || ws[0].Snapshot.TrialsRun != 15 {
		t.Fatalf("redialed worker = %+v", ws[0])
	}
	if s = r.Snapshot(); s.TrialsRun != 35 || s.SlotsSimulated != 3500 {
		t.Fatalf("post-redial totals = run %d slots %d", s.TrialsRun, s.SlotsSimulated)
	}
}
