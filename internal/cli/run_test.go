package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func parseAll(t *testing.T, args ...string) (*Matrix, *Outputs) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	m, o := Register(fs), RegisterOutputs(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return m, o
}

// session starts a session whose exits are recorded instead of taken.
func session(t *testing.T, args ...string) (s *Session, stderr *bytes.Buffer, codes *[]int) {
	t.Helper()
	_, o := parseAll(t, args...)
	s = o.Start("t")
	stderr, codes = new(bytes.Buffer), new([]int)
	s.stderr = stderr
	s.exit = func(code int) { *codes = append(*codes, code) }
	return s, stderr, codes
}

func TestManifestPath(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, ""},
		{[]string{"-json", "x.json"}, "x.manifest.json"},
		{[]string{"-json", "x"}, "x.manifest.json"},
		{[]string{"-json", "x.json", "-manifest", "none"}, ""},
		{[]string{"-json", "x.json", "-manifest", "run.m"}, "run.m"},
		{[]string{"-manifest", "run.m"}, "run.m"},
	} {
		if _, o := parseAll(t, tc.args...); o.Manifest() != tc.want {
			t.Errorf("%v: manifest %q, want %q", tc.args, o.Manifest(), tc.want)
		}
	}
}

// TestFiles pins the output list both tools hand Matrix.Validate: its
// order decides which flag a collision message names first.
func TestFiles(t *testing.T) {
	m, o := parseAll(t, "-topo", "path:8", "-json", "r.json", "-checkpoint", "c", "-events", "e")
	got := o.Files(m, [][2]string{{"csv", "r.csv"}}, [][2]string{{"trace", "t"}})
	want := [][2]string{{"json", "r.json"}, {"csv", "r.csv"}, {"checkpoint", "c"},
		{"manifest", "r.manifest.json"}, {"events", "e"}, {"trace", "t"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Files = %v, want %v", got, want)
	}
	if got := o.Files(m, nil, nil); len(got) != 4 || got[0][0] != "json" || got[3][0] != "events" {
		t.Errorf("Files without a tool's own outputs = %v", got)
	}
	for _, tc := range []struct {
		args  []string
		extra [][2]string
		want  string
	}{
		{[]string{"-json", "a.json"}, [][2]string{{"csv", "a.manifest.json"}}, "-csv and -manifest both write to a.manifest.json"},
		{[]string{"-checkpoint", "x"}, [][2]string{{"csv", "x"}}, "-csv and -checkpoint both write to x"},
		{[]string{"-events", "x", "-manifest", "x"}, nil, "-manifest and -events both write to x"},
	} {
		m, o := parseAll(t, append([]string{"-topo", "path:8"}, tc.args...)...)
		if err := m.Validate(o.Files(m, tc.extra, nil)); err == nil || err.Error() != tc.want {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestRecorderOnlyWhenObserved(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{nil, false},
		{[]string{"-json", "x.json", "-manifest", "none"}, false},
		{[]string{"-json", "x.json"}, true},
		{[]string{"-progress"}, true},
		{[]string{"-status", "127.0.0.1:0"}, true},
	} {
		_, o := parseAll(t, tc.args...)
		if s := o.Start("t"); (s.Rec != nil) != tc.want {
			t.Errorf("%v: recorder %v, want one: %v", tc.args, s.Rec, tc.want)
		}
	}
}

func TestCleanupsRunOnceLastFirst(t *testing.T) {
	s, stderr, codes := session(t)
	var ran []string
	for _, name := range []string{"cpuprofile", "trace", "raw"} {
		s.Defer(func() error { ran = append(ran, name); return nil })
	}
	s.Fatal(errors.New("t: boom"))
	s.Fatal(errors.New("again"))
	if got := strings.Join(ran, ","); got != "raw,trace,cpuprofile" {
		t.Errorf("cleanups ran %s, want raw,trace,cpuprofile once", got)
	}
	if fmt.Sprint(*codes) != "[1 1]" || stderr.String() != "t: boom\nt: again\n" {
		t.Errorf("exits %v, stderr %q", *codes, stderr)
	}
}

// A fatal error raised inside a cleanup ends the session without
// running that cleanup, or any other, a second time.
func TestFatalInsideCleanup(t *testing.T) {
	s, stderr, codes := session(t)
	var ran []string
	s.Defer(func() error { ran = append(ran, "first"); return nil })
	s.Defer(func() error { return errors.New("events: disk full") })
	s.Defer(func() error {
		ran = append(ran, "flush")
		s.Fatal(errors.New("flush failed"))
		return nil
	})
	s.Fatal(errors.New("run failed"))
	if got := strings.Join(ran, ","); got != "flush,first" {
		t.Errorf("cleanups ran %s, want flush,first", got)
	}
	want := "t: events: disk full\nt: flush failed\nt: run failed\n"
	if fmt.Sprint(*codes) != "[1 1]" || stderr.String() != want {
		t.Errorf("exits %v, stderr %q, want [1 1] and %q", *codes, stderr, want)
	}
}

func TestCheckExits(t *testing.T) {
	s, stderr, codes := session(t)
	s.Check(nil, "unused")
	s.Check(fmt.Errorf("run: %w", experiment.ErrInterrupted), "continue with: t -resume c")
	s.Check(experiment.ErrInterrupted, "")
	s.Defer(func() error { return errors.New("close failed") })
	s.Check(experiment.ErrInterrupted, "")
	want := "t: interrupted; continue with: t -resume c\nt: interrupted\nt: close failed\nt: interrupted\n"
	if fmt.Sprint(*codes) != "[130 130 1]" || stderr.String() != want {
		t.Errorf("exits %v, stderr %q, want [130 130 1] and %q", *codes, stderr, want)
	}
}

type fakeReport string

func (r fakeReport) Table() string { return "" }
func (r fakeReport) WriteJSON(w io.Writer) error {
	_, err := io.WriteString(w, string(r))
	return err
}

func TestFinishWritesOutputsThenCleansUp(t *testing.T) {
	dir := t.TempDir()
	s, stderr, codes := session(t, "-json", dir+"/r.json")
	closed := false
	s.Defer(func() error { closed = true; return nil })
	s.Finish(fakeReport(`{"cells":[]}`), map[string]int{"trials": 3}, nil, 2,
		Export{Path: dir + "/r.csv", Write: fakeReport("a,b\n").WriteJSON}, Export{})
	for file, want := range map[string]string{"r.json": `{"cells":[]}`, "r.csv": "a,b\n"} {
		if got, err := os.ReadFile(dir + "/" + file); err != nil || string(got) != want {
			t.Errorf("%s = %q, %v; want %q", file, got, err, want)
		}
	}
	if m, err := os.ReadFile(dir + "/r.manifest.json"); err != nil || !strings.Contains(string(m), `"tool": "t"`) {
		t.Errorf("manifest = %s, %v", m, err)
	}
	if !closed || len(*codes) != 0 || stderr.Len() != 0 {
		t.Errorf("cleanup ran: %v, exits %v, stderr %q", closed, *codes, stderr)
	}

	s, _, codes = session(t)
	s.Defer(func() error { return errors.New("flush failed") })
	s.Finish(fakeReport("{}"), nil, nil, 0)
	if fmt.Sprint(*codes) != "[1]" {
		t.Errorf("a failed cleanup after a finished run exits %v, want [1]", *codes)
	}
}
