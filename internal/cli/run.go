package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/telemetry"
)

// Outputs holds the report and observability flags both tools share.
type Outputs struct {
	JSON, Status, Events string // -json, -status and -events
	Progress             bool   // -progress
	manifest             string // -manifest as given; see Manifest
}

// RegisterOutputs defines -json, -manifest, -status, -progress and
// -events on fs.
func RegisterOutputs(fs *flag.FlagSet) *Outputs {
	o := &Outputs{}
	fs.StringVar(&o.JSON, "json", "", "write aggregate JSON to this file")
	fs.StringVar(&o.manifest, "manifest", "", "write a run manifest (spec, counters, per-cell trials and timings) to this file; defaults to <json>.manifest.json when -json is set; 'none' disables the default")
	fs.StringVar(&o.Status, "status", "", "serve live run status (/status, /metrics; sweepd adds /fabric) and pprof over HTTP on this address (e.g. :8080 or 127.0.0.1:0; resolved address printed to stderr)")
	fs.BoolVar(&o.Progress, "progress", false, "print a periodic one-line progress report with ETA to stderr")
	fs.StringVar(&o.Events, "events", "", "append one JSON line per lifecycle event (cells, batch commits, checkpoint fsyncs, phases; under sweepd also worker joins/leaves and lease grants/steals) to this file")
	return o
}

// Manifest returns the manifest path. The manifest rides along with
// every exported report: without -manifest it is <json>.manifest.json
// when -json is set, and -manifest none turns it off (the report bytes
// do not change either way).
func (o *Outputs) Manifest() string {
	switch {
	case o.manifest == "none":
		return ""
	case o.manifest == "" && o.JSON != "":
		return strings.TrimSuffix(o.JSON, ".json") + ".manifest.json"
	}
	return o.manifest
}

// Files lists every file-writing flag with its path, for
// Matrix.Validate: -json, then a tool's reports, then -checkpoint, the
// manifest and -events, then the tool's other files.
func (o *Outputs) Files(m *Matrix, reports, others [][2]string) [][2]string {
	files := append([][2]string{{"json", o.JSON}}, reports...)
	files = append(files, [2]string{"checkpoint", m.Checkpoint}, [2]string{"manifest", o.Manifest()},
		[2]string{"events", o.Events})
	return append(files, others...)
}

// Session is one run of a tool, from its outputs' start-up to its exit.
// It holds the recorder, the cleanups that must run however the process
// ends (os.Exit skips defers), and every exit: Finish on success, exit
// 130 on an interrupt, exit 1 on a fatal error.
type Session struct {
	// Rec is the run's recorder: nil unless -status, -progress, -events
	// or a manifest asks for it, so an unobserved run pays nothing.
	Rec      *telemetry.Recorder
	tool     string
	out      *Outputs
	cleanups []func() error
	stderr   io.Writer
	exit     func(code int)
}

// Start opens the session of tool (the stderr prefix and the manifest's
// tool name): the recorder when an observability flag asks for it, and
// the -events log.
func (o *Outputs) Start(tool string) *Session {
	s := &Session{tool: tool, out: o, stderr: os.Stderr, exit: os.Exit}
	if o.Status != "" || o.Progress || o.Manifest() != "" || o.Events != "" {
		s.Rec = telemetry.New()
	}
	if o.Events != "" {
		lg, err := telemetry.CreateEventLog(o.Events)
		if err != nil {
			s.Fatal(err)
		}
		s.Rec.SetEventLog(lg)
		// A write error inside the log surfaces here, as a non-zero exit.
		s.Defer(func() error {
			if err := lg.Close(); err != nil {
				return fmt.Errorf("events: %w", err)
			}
			return nil
		})
	}
	return s
}

// Serve starts the status endpoint when -status is set, with mounts
// added to its mux, and announces its resolved address on stderr
// followed by note. The address makes ":0" usable by scripts, and the
// manifest records it.
func (s *Session) Serve(note string, mounts ...func(*http.ServeMux)) {
	if s.out.Status == "" {
		return
	}
	addr, shutdown, err := telemetry.StartStatusServer(s.out.Status, s.Rec, mounts...)
	if err != nil {
		s.Fatal(err)
	}
	s.say("status endpoint on http://" + addr + "/status" + note)
	s.Rec.SetStatusAddr(addr)
	s.Defer(func() error { shutdown(); return nil })
}

// Interrupt returns a channel the first SIGINT or SIGTERM closes, for
// the controller's graceful stop; doing names what the stop does first.
// SIGTERM gets the same treatment because orchestrators (systemd,
// Kubernetes, CI timeouts) deliver it where a terminal sends ^C, and the
// journal must survive either. A second signal kills the process the
// default way.
func (s *Session) Interrupt(doing string) <-chan struct{} {
	intr := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		signal.Stop(sig)
		s.say("interrupt — " + doing + " and flushing the checkpoint (signal again to kill)")
		close(intr)
	}()
	return intr
}

// Defer adds a cleanup. Cleanups run once, last added first, at every
// exit of the session; an error from one is printed and makes the exit
// status 1.
func (s *Session) Defer(f func() error) { s.cleanups = append(s.cleanups, f) }

// Fatal runs the cleanups, prints err and exits 1.
func (s *Session) Fatal(err error) {
	s.cleanup()
	// Package errors may carry the tool's own prefix; avoid doubling it.
	s.say(strings.TrimPrefix(err.Error(), s.tool+": "))
	s.exit(1)
}

// Check returns when err is nil. An interrupt runs the cleanups and
// exits 130, printing "interrupted" and then hint, if set, which says
// how to continue the run; any other error is fatal.
func (s *Session) Check(err error, hint string) {
	switch {
	case err == nil:
		return
	case errors.Is(err, experiment.ErrInterrupted):
		code := 130
		if !s.cleanup() {
			code = 1
		}
		if hint != "" {
			hint = "; " + hint
		}
		s.say("interrupted" + hint)
		s.exit(code)
	default:
		s.Fatal(err)
	}
}

// Report is what a run renders: sweep.Report for fixed sweeps,
// experiment.Report for runs through the controller.
type Report interface {
	Table() string
	WriteJSON(io.Writer) error
}

// Run runs one experiment under the -progress reporter and returns its
// report; Check handles its error. total is the trial total the ETA
// extrapolates to (0: rate only), and upper marks it as a cap.
func Run[R Report](s *Session, total uint64, upper bool, hint string, run func() (R, error)) R {
	stop := func() {}
	if s.out.Progress {
		stop = s.Rec.StartProgress(s.stderr, time.Second, total, upper)
	}
	rep, err := run()
	stop()
	s.Check(err, hint)
	return rep
}

// An Export is one more report file, written after -json.
type Export struct {
	Path  string // "" writes nothing
	Write func(io.Writer) error
}

// Finish ends a successful run: it prints rep's table, writes -json and
// the exports, then the manifest of spec, meta (the controller's
// parameters, nil for a fixed sweep) and workers, and runs the
// cleanups.
func (s *Session) Finish(rep Report, spec, meta any, workers int, exports ...Export) {
	s.Rec.Phase("output")
	fmt.Print(rep.Table())
	for _, e := range append([]Export{{s.out.JSON, rep.WriteJSON}}, exports...) {
		if e.Path == "" {
			continue
		}
		if err := WriteFile(e.Path, e.Write); err != nil {
			s.Fatal(err)
		}
	}
	if path := s.out.Manifest(); path != "" {
		if err := s.Rec.BuildManifest(s.tool, spec, meta, workers).WriteFile(path); err != nil {
			s.Fatal(err)
		}
	}
	if !s.cleanup() {
		s.exit(1)
	}
}

// cleanup runs the cleanups once, last added first, printing each
// error; it reports whether all succeeded. Each is removed before it
// runs, so a cleanup that ends the session itself cannot run twice.
func (s *Session) cleanup() (ok bool) {
	ok = true
	for len(s.cleanups) > 0 {
		f := s.cleanups[len(s.cleanups)-1]
		s.cleanups = s.cleanups[:len(s.cleanups)-1]
		if err := f(); err != nil {
			s.say(err.Error())
			ok = false
		}
	}
	return ok
}

func (s *Session) say(msg string) { fmt.Fprintf(s.stderr, "%s: %s\n", s.tool, msg) }

// WriteFile creates path and fills it with write.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
