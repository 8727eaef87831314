package experiment

// The checkpoint journal is an append-only sequence of CRC-framed,
// fsync'd records: one header describing the run, then one record per
// completed trial batch. Records are framed as
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload
//
// so a crash mid-write leaves a detectably torn tail: the reader
// stops at the first short or checksum-failing frame and reports how
// many bytes it trusted, and resume simply re-runs the batches whose
// records were torn or never written. Payloads are JSON — Go's encoder
// emits the shortest float64 representation that round-trips
// bit-exactly, which is what lets a resumed run merge journaled moment
// state into aggregates byte-identical to an uninterrupted run's.
//
// Batch records are group-committed by one writer goroutine: it takes
// every record queued since its last fsync, writes their frames with
// one Write and makes them durable with one Sync, then hands the group
// back to the coordinator, which merges a record only after its
// group's fsync has returned. The coordinator keeps issuing leases
// while a group syncs.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// journalMagic identifies the file format; bump the trailing digit on
// incompatible changes.
const journalMagic = "radio-experiment-ckpt-1"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// header is the journal's first record: everything needed to
// reconstruct the run, plus the normalized controller parameters the
// deterministic stop rule depends on.
type header struct {
	Magic       string     `json:"magic"`
	Spec        sweep.Spec `json:"spec"`
	BatchSize   int        `json:"batchSize"`
	MinTrials   int        `json:"minTrials"`
	MaxTrials   int        `json:"maxTrials"`
	TargetRelCI float64    `json:"targetRelCI"`
	Confidence  float64    `json:"confidence"`
	Measures    []string   `json:"measures"`
}

// BatchRecord summarizes one completed trial batch of one cell: the moment
// state of every tracked measure over the batch's successful trials.
// Trial identity is positional ((cell, trial) drives the seed), so no
// rng state needs capturing — Lo/Hi alone locate the batch. It is both
// the journal's record type and the unit of work a fabric worker
// returns to its coordinator (internal/fabric): FoldBatch builds one
// from executed trials, and the lease controller admits it through the
// same prefix-merge rule wherever it was computed.
type BatchRecord struct {
	Cell      int `json:"cell"`
	Lo        int `json:"lo"`
	Hi        int `json:"hi"`
	Errors    int `json:"errors"`
	Completed int `json:"completed"`
	// Crashes/Sleeps/Erasures sum the faults injected across the batch's
	// trials (internal/fault); all zero — and omitted — for fault-free
	// cells, keeping fault-free journals byte-compatible.
	Crashes  int             `json:"crashes,omitempty"`
	Sleeps   int             `json:"sleeps,omitempty"`
	Erasures int             `json:"erasures,omitempty"`
	Moments  []stats.Moments `json:"moments"`
}

// Group is one group commit of the checkpoint journal: the batch
// records a single write and fsync covered, handed back on
// LeaseController.Synced for LeaseController.Commit to merge. A group
// whose write or fsync failed carries the error, and none of its
// records merge.
type Group struct {
	records []*BatchRecord
	err     error
}

// journalWriter owns an open journal and the goroutine (run) that
// group-commits its batch records. queue and close are called from the
// controller's coordinator goroutine only.
type journalWriter struct {
	f *os.File
	// rec counts each group's fsync and records (Recorder.JournalFsync),
	// so the snapshot's JournalRecords is exactly the number of batch
	// records journaled this process; the header's fsync is not counted.
	rec *telemetry.Recorder
	// synced carries every group back once its fsync has returned; run
	// closes it when it exits.
	synced chan Group
	// wake holds one token while records are queued or close is asked.
	wake chan struct{}

	mu      sync.Mutex
	queued  []*BatchRecord
	closing bool
}

// createJournal starts a fresh journal at path, writes and fsyncs the
// header record, and starts its writer. An existing file is refused,
// never truncated: after a crash the natural retry is the original
// command line, and silently wiping the fsync'd batches it was about to
// resume from is exactly the failure the journal exists to prevent.
func createJournal(path string, h header, rec *telemetry.Recorder) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("experiment: checkpoint %s already exists — continue it with -resume %s, or remove it to start fresh", path, path)
		}
		return nil, fmt.Errorf("experiment: checkpoint: %w", err)
	}
	frame, err := appendFrame(nil, h)
	if err == nil {
		_, err = writeSync(f, frame)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return startJournal(f, rec), nil
}

// openJournalAppend reopens an existing journal for appending,
// positioned after its last intact record, and starts its writer.
// trusted is the byte offset journalRead validated; anything beyond (a
// torn tail) is truncated away so the next record lands on a clean
// frame boundary.
func openJournalAppend(path string, trusted int64, rec *telemetry.Recorder) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint: %w", err)
	}
	if err := f.Truncate(trusted); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiment: checkpoint: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(trusted, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiment: checkpoint: %w", err)
	}
	return startJournal(f, rec), nil
}

func startJournal(f *os.File, rec *telemetry.Recorder) *journalWriter {
	w := &journalWriter{f: f, rec: rec, synced: make(chan Group), wake: make(chan struct{}, 1)}
	go w.run()
	return w
}

// appendFrame appends v's frame — payload length, CRC-32C, JSON
// payload — to dst. The header and every batch record are framed here.
func appendFrame(dst []byte, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("experiment: checkpoint: %w", err)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...), nil
}

// writeSync writes frames with one Write and makes them durable with
// one Sync, and returns how long the Sync took. A frame whose Write has
// returned survives a crash of the process (SIGKILL included) without
// the Sync; the Sync is what keeps it through a power loss or a kernel
// crash, so a record merges only after it.
func writeSync(f *os.File, frames []byte) (time.Duration, error) {
	if _, err := f.Write(frames); err != nil {
		return 0, fmt.Errorf("experiment: checkpoint: %w", err)
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("experiment: checkpoint: %w", err)
	}
	return time.Since(t0), nil
}

// queue hands one batch record to the writer.
func (w *journalWriter) queue(rec *BatchRecord) {
	w.mu.Lock()
	w.queued = append(w.queued, rec)
	w.mu.Unlock()
	w.signal()
}

func (w *journalWriter) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// run is the writer goroutine: each pass takes every record queued
// since the last one, writes and fsyncs them as one group, and sends
// the group back on synced. The first write or fsync error sticks: no
// later group is written (the file may end in a torn frame), and every
// later group carries the same error.
func (w *journalWriter) run() {
	defer close(w.synced)
	var buf []byte
	var err error
	for {
		<-w.wake
		w.mu.Lock()
		group, closing := w.queued, w.closing
		w.queued = nil
		w.mu.Unlock()
		if len(group) > 0 {
			if err == nil {
				buf, err = w.write(buf[:0], group)
			}
			w.synced <- Group{records: group, err: err}
		}
		if closing {
			return
		}
	}
}

// write frames group's records into buf and makes them durable with
// one Write and one Sync.
func (w *journalWriter) write(buf []byte, group []*BatchRecord) ([]byte, error) {
	for _, rec := range group {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return buf, err
		}
	}
	d, err := writeSync(w.f, buf)
	if err == nil {
		w.rec.JournalFsync(len(group), d)
	}
	return buf, err
}

// close flushes every queued record, waits for the writer to exit and
// closes the file. Groups it drains are not merged; their first error,
// if any, is returned.
func (w *journalWriter) close() error {
	w.mu.Lock()
	w.closing = true
	w.mu.Unlock()
	w.signal()
	var err error
	for g := range w.synced {
		if err == nil {
			err = g.err
		}
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// journalContents is the validated view of an existing journal.
type journalContents struct {
	header  header
	batches []BatchRecord
	// trusted is the byte offset of the end of the last intact record;
	// appending resumes there.
	trusted int64
	// torn reports whether a truncated or checksum-failing tail was
	// discarded (the SIGKILL signature — informational, not an error).
	torn bool
}

// errNoJournal distinguishes a missing checkpoint from a corrupt one.
var errNoJournal = errors.New("experiment: checkpoint file does not exist")

// journalRead loads and validates a journal. A torn tail (short frame
// or CRC mismatch at the end) is tolerated and reported via torn; a
// journal whose header is unreadable is an error, since nothing can be
// resumed from it.
func journalRead(path string) (*journalContents, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, errNoJournal
		}
		return nil, fmt.Errorf("experiment: checkpoint: %w", err)
	}
	jc := &journalContents{}
	off := int64(0)
	first := true
	for {
		payload, next, ok := nextFrame(raw, off)
		if !ok {
			jc.torn = int64(len(raw)) > off
			break
		}
		if first {
			if err := json.Unmarshal(payload, &jc.header); err != nil {
				return nil, fmt.Errorf("experiment: checkpoint %s: bad header: %w", path, err)
			}
			if jc.header.Magic != journalMagic {
				return nil, fmt.Errorf("experiment: checkpoint %s: not a checkpoint journal (magic %q)", path, jc.header.Magic)
			}
			first = false
		} else {
			var rec BatchRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				// A CRC-valid frame that does not decode means a writer
				// bug, not a torn write; stop trusting the file here.
				jc.torn = true
				break
			}
			if err := validateBatchRecord(rec); err != nil {
				jc.torn = true
				break
			}
			jc.batches = append(jc.batches, rec)
		}
		off = next
		jc.trusted = off
	}
	if first {
		return nil, fmt.Errorf("experiment: checkpoint %s: no intact header", path)
	}
	return jc, nil
}

// nextFrame decodes the frame starting at off. ok is false on a short
// or checksum-failing frame.
func nextFrame(raw []byte, off int64) (payload []byte, next int64, ok bool) {
	if off+8 > int64(len(raw)) {
		return nil, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(raw[off : off+4]))
	sum := binary.LittleEndian.Uint32(raw[off+4 : off+8])
	if off+8+n > int64(len(raw)) {
		return nil, 0, false
	}
	payload = raw[off+8 : off+8+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, false
	}
	return payload, off + 8 + n, true
}

// Validate rejects records no controller could have written — the
// shared guard for journal replay and fabric wire decoding (a CRC-valid
// or length-valid frame can still carry a buggy writer's state).
func (rec *BatchRecord) Validate() error { return validateBatchRecord(*rec) }

// validateBatchRecord rejects records no controller could have written.
func validateBatchRecord(rec BatchRecord) error {
	if rec.Cell < 0 || rec.Lo < 0 || rec.Hi <= rec.Lo {
		return fmt.Errorf("experiment: bad batch range cell=%d [%d,%d)", rec.Cell, rec.Lo, rec.Hi)
	}
	if rec.Errors < 0 || rec.Completed < 0 || rec.Errors+rec.Completed > rec.Hi-rec.Lo {
		return fmt.Errorf("experiment: bad batch counters")
	}
	if rec.Crashes < 0 || rec.Sleeps < 0 || rec.Erasures < 0 {
		return fmt.Errorf("experiment: negative fault counters")
	}
	for _, m := range rec.Moments {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	return nil
}
