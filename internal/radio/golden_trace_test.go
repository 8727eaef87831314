package radio

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// updateGoldenTrace regenerates testdata/golden_trace.txt from the current
// engine. Run `go test ./internal/radio -run GoldenSlotTrace -update-golden`
// ONLY when an intentional semantic change to the engine is being made; the
// file pins the slot-level event stream byte for byte so that scheduler
// rewrites (cohort batching, payload interning, CSR adjacency, the
// goroutine-ABI deletion) can prove they preserve the exact execution
// order.
var updateGoldenTrace = flag.Bool("update-golden", false, "rewrite testdata/golden_trace.txt")

// traceScenario is one deterministic run whose full Event stream is pinned.
type traceScenario struct {
	name  string
	model Model
	seed  uint64
	build func() *graph.Graph
	procs func(n int) []Proc
}

// goldenTraceScenarios covers all four collision models, mixed cohorts,
// full duplex, early halting, idle slots, and randomized schedules. The
// graphs are chosen from families whose adjacency order is canonical
// (ascending), so the trace is independent of construction order.
//
// The step machines below reproduce, action for action and random draw
// for random draw, the blocking programs the golden file was first
// recorded from — which is why the file survives the blocking ABI's
// deletion unchanged.
func goldenTraceScenarios() []traceScenario {
	return []traceScenario{
		{
			// Randomized contention on a sparse random graph: dense cohorts,
			// every CD feedback kind (silence, receive, noise).
			name:  "cd-gnp24",
			model: CD,
			seed:  7,
			build: func() *graph.Graph { return graph.GNP(24, 8.0/24, 31) },
			procs: func(n int) []Proc {
				ps := make([]Proc, n)
				for v := 0; v < n; v++ {
					s := uint64(0)
					ps[v] = ProcFunc(func(e Channel, fb Feedback) Action {
						s++
						if s > 30 {
							return Halt()
						}
						if e.Rand().Uint64()&3 == 0 {
							return Transmit(s, e.Index())
						}
						return Listen(s)
					})
				}
				return ps
			},
		},
		{
			// LOCAL model on a path: multi-payload delivery plus full duplex.
			name:  "local-path9",
			model: Local,
			seed:  11,
			build: func() *graph.Graph { return graph.Path(9) },
			procs: func(n int) []Proc {
				ps := make([]Proc, n)
				for v := 0; v < n; v++ {
					s := uint64(0)
					ps[v] = ProcFunc(func(e Channel, fb Feedback) Action {
						for {
							s++
							if s > 12 {
								return Halt()
							}
							switch {
							case (uint64(e.Index())+s)%3 == 0:
								return TransmitListen(s, e.Index()*100+int(s))
							case (uint64(e.Index())+s)%3 == 1:
								return Listen(s)
							}
							// Third case: idle through slot s — free, invisible.
						}
					})
				}
				return ps
			},
		},
		{
			// No-CD star: the center hears exactly the singleton slots.
			name:  "nocd-star8",
			model: NoCD,
			seed:  3,
			build: func() *graph.Graph { return graph.Star(8) },
			procs: func(n int) []Proc {
				ps := make([]Proc, n)
				s0 := uint64(0)
				ps[0] = ProcFunc(func(e Channel, fb Feedback) Action {
					s0++
					if s0 > 10 {
						return Halt()
					}
					return Listen(s0)
				})
				for v := 1; v < n; v++ {
					s := uint64(0)
					ps[v] = ProcFunc(func(e Channel, fb Feedback) Action {
						for {
							s++
							if s > 10 {
								return Halt()
							}
							if e.Rand().Uint64()&1 == 0 {
								return Transmit(s, e.Index())
							}
							// Tails: idle through slot s.
						}
					})
				}
				return ps
			},
		},
		{
			// CD* clique with staggered halts: shrinking cohorts, arbitrary-
			// (lowest-index-)transmitter delivery.
			name:  "cdstar-clique6",
			model: CDStar,
			seed:  19,
			build: func() *graph.Graph { return graph.Clique(6) },
			procs: func(n int) []Proc {
				ps := make([]Proc, n)
				for v := 0; v < n; v++ {
					s := uint64(0)
					ps[v] = ProcFunc(func(e Channel, fb Feedback) Action {
						s++
						if s > uint64(4+2*e.Index()) {
							return Halt()
						}
						if e.Rand().Uint64()%3 == 0 {
							return Transmit(s, e.Index())
						}
						return Listen(s)
					})
				}
				return ps
			},
		},
		{
			// More than two words of devices per scheduled slot, with
			// schedules that mix next-slot requests, jumps under and over
			// 64 slots, no-op sleeps and staggered halts: pending requests
			// sit both near the current slot and far beyond it, and far
			// ones come due while near cohorts are still being resolved.
			name:  "cd-gnp150",
			model: CD,
			seed:  23,
			build: func() *graph.Graph { return graph.GNP(150, 12.0/150, 43) },
			procs: func(n int) []Proc {
				ps := make([]Proc, n)
				for v := 0; v < n; v++ {
					s := uint64(0)
					left := 10 + v%6
					ps[v] = ProcFunc(func(e Channel, fb Feedback) Action {
						if left == 0 {
							return Halt()
						}
						r := e.Rand()
						switch r.IntN(6) {
						case 0:
							return Sleep(s) // no-op: the clock is already at s
						case 1:
							s++
						case 2, 3:
							s += 2 + uint64(r.IntN(61))
						default:
							s += 64 + uint64(r.IntN(237))
						}
						left--
						if r.IntN(3) == 0 {
							return Transmit(s, e.Index())
						}
						return Listen(s)
					})
				}
				return ps
			},
		},
	}
}

// formatEvent renders one Event as a stable single-line record.
func formatEvent(ev Event) string {
	kind := ""
	switch ev.Kind {
	case EventTransmit:
		kind = "tx"
	case EventReceive:
		kind = "rx"
	case EventSilence:
		kind = "sil"
	case EventNoise:
		kind = "noise"
	default:
		kind = fmt.Sprintf("kind(%d)", ev.Kind)
	}
	return fmt.Sprintf("%d %d %s %v %d", ev.Slot, ev.Dev, kind, ev.Payload, ev.From)
}

// renderGoldenTrace runs every scenario and serializes the concatenated
// event streams plus the run's aggregate counters.
func renderGoldenTrace(t *testing.T) string {
	return renderGoldenTraceFault(t, fault.Spec{})
}

// renderGoldenTraceFault is renderGoldenTrace with a fault spec threaded
// into every scenario — the hook the rate-0 byte-identity pin uses.
func renderGoldenTraceFault(t *testing.T, fs fault.Spec) string {
	t.Helper()
	var sb strings.Builder
	for _, sc := range goldenTraceScenarios() {
		g := sc.build()
		sb.WriteString("# scenario " + sc.name + "\n")
		cfg := Config{
			Graph: g,
			Model: sc.model,
			Seed:  sc.seed,
			Fault: fs,
			Trace: func(ev Event) {
				sb.WriteString(formatEvent(ev))
				sb.WriteByte('\n')
			},
		}
		res, err := RunDevices(cfg, Procs(sc.procs(g.N())))
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Fprintf(&sb, "= slots=%d events=%d maxE=%d totE=%d energy=%v tx=%v listen=%v\n",
			res.Slots, res.Events, res.MaxEnergy(), res.TotalEnergy(),
			res.Energy, res.Transmits, res.Listens)
	}
	return sb.String()
}

// TestGoldenSlotTrace pins the engine's slot-level event stream — the order
// and content of every trace event, for fixed seeds on fixed graphs —
// byte for byte against testdata/golden_trace.txt. Any scheduler change
// must reproduce this stream exactly: cohort release order is (slot, then
// device index), and feedback, energy accounting, and event emission all
// follow that order.
func TestGoldenSlotTrace(t *testing.T) {
	got := renderGoldenTrace(t)
	path := filepath.Join("testdata", "golden_trace.txt")
	if *updateGoldenTrace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		// Find the first diverging line for a readable failure.
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trace diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace length differs: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestGoldenSlotTraceDeterministic guards the guard: two renders of the
// scenario suite in the same process must be identical, otherwise the
// golden comparison would be meaningless.
func TestGoldenSlotTraceDeterministic(t *testing.T) {
	if renderGoldenTrace(t) != renderGoldenTrace(t) {
		t.Fatal("golden trace scenarios are not deterministic")
	}
}
