package telemetry

// Latency histograms follow the same discipline as the counters: hot
// paths record with uncontended atomic adds (one Observe per trial
// batch, never per slot), and readers merge on demand. Buckets are
// powers of two of the observation in nanoseconds, so recording is a
// bits.Len64 and an add — no search, no floats, no allocation — and two
// histograms recorded on different machines merge exactly (bucket i
// means the same range everywhere).

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count: bucket 0 holds zero-duration
// observations and bucket i (1..64) holds observations v in nanoseconds
// with 2^(i-1) <= v < 2^i, i.e. i = bits.Len64(v).
const histBuckets = 65

// Latency-histogram keys used in Snapshot.Latencies (and, snake-cased,
// in the /metrics exposition).
const (
	// LatencyBatch is the wall-clock of one executed trial batch.
	LatencyBatch = "batch"
	// LatencyJournalFsync is the fsync of one checkpoint-journal group
	// commit (every batch record queued since the previous fsync).
	LatencyJournalFsync = "journalFsync"
	// LatencyLeaseRoundTrip is a fabric lease's issue-to-result time.
	LatencyLeaseRoundTrip = "leaseRoundTrip"
)

// Histogram is a mergeable log-bucketed latency histogram. The zero
// value is ready to use; a nil *Histogram no-ops Observe like the rest
// of the package. Writers call Observe concurrently; readers call
// Snapshot at any time (counts and sum are each atomic but not mutually
// consistent mid-record — snapshots are monitoring data, not ledgers).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations (clock steps) clamp
// to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(d))
	h.buckets[bits.Len64(uint64(d))].Add(1)
}

// Snapshot merges the histogram's current state into an immutable
// snapshot, buckets trimmed after the last non-empty one.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:      h.count.Load(),
		SumSeconds: float64(h.sum.Load()) / 1e9,
	}
	last := -1
	var buckets [histBuckets]uint64
	for i := range buckets {
		if buckets[i] = h.buckets[i].Load(); buckets[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]uint64(nil), buckets[:last+1]...)
	}
	return s
}

// HistogramSnapshot is the serializable form of a Histogram. Buckets[i]
// counts observations in bucket i (see histBuckets); trailing empty
// buckets are trimmed. Two snapshots — from different processes or
// machines — merge losslessly because bucket boundaries are fixed.
type HistogramSnapshot struct {
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sumSeconds"`
	Buckets    []uint64 `json:"buckets,omitempty"`
}

// Merge folds o into s.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.SumSeconds += o.SumSeconds
	if len(o.Buckets) > len(s.Buckets) {
		grown := make([]uint64, len(o.Buckets))
		copy(grown, s.Buckets)
		s.Buckets = grown
	}
	for i, c := range o.Buckets {
		s.Buckets[i] += c
	}
}

// BucketBound returns bucket i's upper bound in seconds: 2^i
// nanoseconds. Every observation in buckets 0..i is <= BucketBound(i)
// (durations are integer nanoseconds strictly below 2^i), which is what
// makes these valid Prometheus cumulative le bounds.
func BucketBound(i int) float64 {
	return math.Ldexp(1, i) / 1e9
}
