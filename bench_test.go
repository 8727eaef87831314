// Benchmarks regenerating the paper's evaluation: one benchmark per row
// of Table 1 plus Figure 1, the Partition lemmas, and the baseline. Each
// reports the paper's two complexity measures as custom metrics:
// slots/op (time) and maxEnergy/op (energy). Absolute values are
// implementation-specific; the shape across the size parameters is what
// reproduces the paper. bench/README.md documents the end-to-end
// benchmark.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cdmerge"
	"repro/internal/core"
	"repro/internal/dtime"
	"repro/internal/graph"
	"repro/internal/iterclust"
	"repro/internal/leader"
	"repro/internal/partition"
	"repro/internal/pathcast"
	"repro/internal/radio"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// report runs fn once per iteration and reports mean slots and energy.
func report(b *testing.B, fn func(seed uint64) (uint64, int)) {
	b.Helper()
	var slots, energy float64
	for i := 0; i < b.N; i++ {
		s, e := fn(uint64(i + 1))
		slots += float64(s)
		energy += float64(e)
	}
	b.ReportMetric(slots/float64(b.N), "slots/op")
	b.ReportMetric(energy/float64(b.N), "maxEnergy/op")
}

// run runs one protocol device per vertex of cfg.Graph, failing b on a
// run error.
func run[R any](b *testing.B, cfg radio.Config, proc func(v int, out *R) radio.Proc) (*radio.Result, []R) {
	b.Helper()
	res, devs, err := radio.Run(cfg, proc)
	if err != nil {
		b.Fatal(err)
	}
	return res, devs
}

// iterclustProc builds vertex v's Theorem 11/12 device broadcasting
// from vertex 0.
func iterclustProc(p iterclust.Params) func(v int, out *iterclust.DeviceResult) radio.Proc {
	return func(v int, out *iterclust.DeviceResult) radio.Proc { return iterclust.Proc(p, v == 0, "m", out) }
}

// pathProc builds vertex v's Algorithm 1 device broadcasting from
// vertex 0 of the path g.
func pathProc(g *graph.Graph) func(v int, out *pathcast.DeviceResult) radio.Proc {
	return func(v int, out *pathcast.DeviceResult) radio.Proc {
		return pathcast.Proc(pathcast.Params{}, g.Neighbors(v), v == 0, "m", out)
	}
}

// BenchmarkLocalIterClust is Table 1 row "randomized LOCAL: O(n log n)
// time, O(log n) energy" (Theorem 11).
func BenchmarkLocalIterClust(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GNP(n, 8.0/float64(n), 11)
			p := iterclust.NewParams(radio.Local, g.N(), g.MaxDegree())
			report(b, func(seed uint64) (uint64, int) {
				res, _ := run(b, radio.Config{Graph: g, Model: p.Model, Seed: seed}, iterclustProc(p))
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// BenchmarkNoCDIterClust is Table 1 row "randomized No-CD:
// O(n logD log^2 n) time, O(logD log^2 n) energy" (Theorem 11).
func BenchmarkNoCDIterClust(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GNP(n, 8.0/float64(n), 11)
			p := iterclust.NewParams(radio.NoCD, g.N(), g.MaxDegree())
			report(b, func(seed uint64) (uint64, int) {
				res, _ := run(b, radio.Config{Graph: g, Model: p.Model, Seed: seed}, iterclustProc(p))
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// BenchmarkCDIterClust is Table 1 row "randomized CD:
// O(n logD log^{2+eps} n/(eps loglog n)) time, O(log^2 n/(eps loglog n))
// energy" (Theorem 12).
func BenchmarkCDIterClust(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GNP(n, 8.0/float64(n), 13)
			p := iterclust.NewTheorem12Params(g.N(), g.MaxDegree(), 0.5)
			report(b, func(seed uint64) (uint64, int) {
				res, _ := run(b, radio.Config{Graph: g, Model: p.Model, Seed: seed}, iterclustProc(p))
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// BenchmarkCDMerge is Table 1 row "randomized CD: O(Delta n^{1+xi}) time,
// O(log n(loglogDelta+1/xi)/logloglogDelta) energy" (Theorem 20).
func BenchmarkCDMerge(b *testing.B) {
	for _, n := range []int{12, 16, 24} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GNP(n, 6.0/float64(n), 17)
			p, err := cdmerge.NewParams(g.N(), g.MaxDegree(), 0.5)
			if err != nil {
				b.Fatal(err)
			}
			p = p.Tune(10, 3, g.N())
			report(b, func(seed uint64) (uint64, int) {
				res, _ := run(b, radio.Config{Graph: g, Model: radio.CD, Seed: seed, MaxSlots: 1 << 62},
					func(v int, out *cdmerge.DeviceResult) radio.Proc { return cdmerge.Proc(p, v == 0, "m", out) })
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// BenchmarkNoCDDiamTime is Table 1 row "randomized No-CD/CD:
// O(D^{1+eps} polylog n) time, O(polylog n) energy" (Theorem 16), on
// constant-diameter graphs where the contrast with Theta(n polylog)-time
// algorithms is visible.
func BenchmarkNoCDDiamTime(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.Star(n)
			p, err := dtime.NewParams(radio.CD, g.N(), g.MaxDegree(), 2, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			p = p.Tune(g.N(), 10, 6, 10, 1)
			report(b, func(seed uint64) (uint64, int) {
				res, _ := run(b, radio.Config{Graph: g, Model: radio.CD, Seed: seed, MaxSlots: 1 << 62},
					func(v int, out *dtime.DeviceResult) radio.Proc { return dtime.Proc(p, v == 0, "m", out) })
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// BenchmarkNoCDBoundedDegree is Table 1 row "randomized No-CD, Delta=O(1):
// O(n log n) time, O(log n) energy" (Corollary 13 via the Theorem 3
// simulation).
func BenchmarkNoCDBoundedDegree(b *testing.B) {
	for _, n := range []int{12, 16, 24} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.Cycle(n)
			report(b, func(seed uint64) (uint64, int) {
				res, err := core.Broadcast(g, 0, core.WithAlgorithm(core.AlgoBoundedDegree),
					core.WithSeed(seed))
				if err != nil {
					b.Fatal(err)
				}
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// BenchmarkPathBroadcast is Theorem 21 and Figure 1: 2n worst-case time,
// O(log n) expected per-vertex energy on paths.
func BenchmarkPathBroadcast(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.Path(n)
			report(b, func(seed uint64) (uint64, int) {
				res, devs := run(b, radio.Config{Graph: g, Model: radio.Local, Seed: seed}, pathProc(g))
				return pathcast.MaxReceiveSlot(devs), res.MaxEnergy()
			})
		})
	}
}

// BenchmarkDetLocal is Table 1 row "deterministic LOCAL:
// O(n log n logN) time, O(log n logN) energy" (Theorem 25).
func BenchmarkDetLocal(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GNP(n, 6.0/float64(n), 23)
			report(b, func(seed uint64) (uint64, int) {
				res, err := core.Broadcast(g, 0, core.WithModel(radio.Local),
					core.WithAlgorithm(core.AlgoDeterministic), core.WithSeed(seed))
				if err != nil {
					b.Fatal(err)
				}
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// BenchmarkDetCD is Table 1 row "deterministic CD: O(N^2 n log n logN)
// time, O(log^3 N log n) energy" (Theorem 27).
func BenchmarkDetCD(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GNP(n, 6.0/float64(n), 23)
			report(b, func(seed uint64) (uint64, int) {
				res, err := core.Broadcast(g, 0, core.WithModel(radio.CD),
					core.WithAlgorithm(core.AlgoDeterministic), core.WithSeed(seed))
				if err != nil {
					b.Fatal(err)
				}
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// BenchmarkLowerBoundCD is Table 1 rows "any CD algorithm: Omega(log n)
// energy" / "No-CD: Omega(logDelta log n)" (Theorem 2): measured Broadcast
// energy on K_{2,k} against the single-hop LeaderElection time the
// reduction ties it to.
func BenchmarkLowerBoundCD(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g := graph.K2k(k)
			p := iterclust.NewParams(radio.CD, g.N(), g.MaxDegree())
			report(b, func(seed uint64) (uint64, int) {
				res, _ := run(b, radio.Config{Graph: g, Model: p.Model, Seed: seed}, iterclustProc(p))
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// BenchmarkLeaderElectionCD measures the single-hop CD election the
// Theorem 2 reduction compares Broadcast energy against.
func BenchmarkLeaderElectionCD(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			report(b, func(seed uint64) (uint64, int) {
				res, _ := run(b, radio.Config{Graph: graph.Clique(k), Model: radio.CD, Seed: seed},
					func(_ int, out *leader.Outcome) radio.Proc { return leader.ElectCDProc(1, true, k, 4000, out) })
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// BenchmarkLowerBoundLocalPath is Theorem 1: Omega(log n) worst-vertex
// energy on paths, matched by the path algorithm's O(log n).
func BenchmarkLowerBoundLocalPath(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.Path(n)
			report(b, func(seed uint64) (uint64, int) {
				res, _ := run(b, radio.Config{Graph: g, Model: radio.Local, Seed: seed}, pathProc(g))
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// BenchmarkPartition exercises Lemmas 14-15: Partition(beta) clustering
// cost and the cluster-graph diameter contraction.
func BenchmarkPartition(b *testing.B) {
	for _, beta := range []float64{0.25, 0.5} {
		b.Run(fmt.Sprintf("beta=%v", beta), func(b *testing.B) {
			g := graph.Grid(8, 8)
			p, err := partition.NewParams(radio.Local, g.N(), g.MaxDegree(), beta)
			if err != nil {
				b.Fatal(err)
			}
			var cd float64
			for i := 0; i < b.N; i++ {
				_, devs := run(b, radio.Config{Graph: g, Model: p.SR.Model, Seed: uint64(i + 1)},
					func(_ int, out *partition.Result) radio.Proc { return partition.Proc(p, 1, out) })
				cg, _ := partition.ClusterGraph(g, devs)
				if d, err := cg.Diameter(); err == nil {
					cd += float64(d)
				}
			}
			b.ReportMetric(cd/float64(b.N), "clusterDiam/op")
		})
	}
}

// BenchmarkBaselineDecay is the comparator: BGI decay broadcast — fast,
// but with per-vertex energy tracking elapsed time.
func BenchmarkBaselineDecay(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.Path(n)
			d, err := g.Diameter()
			if err != nil {
				b.Fatal(err)
			}
			p := baseline.NewParams(g.N(), g.MaxDegree(), d)
			report(b, func(seed uint64) (uint64, int) {
				res, _ := run(b, radio.Config{Graph: g, Model: radio.NoCD, Seed: seed},
					func(v int, out *baseline.DeviceResult) radio.Proc { return baseline.Proc(p, v == 0, "m", out) })
				return res.Slots, res.MaxEnergy()
			})
		})
	}
}

// denseProc is the scheduler-bench device: 60 busy slots of randomized
// transmit/listen, as a resumable step proc the scheduler drives inline.
type denseProc struct {
	slots uint64
	s     uint64
}

func (p *denseProc) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	p.s++
	if p.s > p.slots {
		return radio.Halt()
	}
	if ch.Rand().Uint64()&3 == 0 {
		return radio.Transmit(p.s, p.s)
	}
	return radio.Listen(p.s)
}

// BenchmarkSchedulerDense256 measures the scheduler hot path on a
// 256-vertex graph: every device stays busy, so each slot forces a
// min-slot search and cohort collection over all pending requests. The
// simulator is reused across iterations — the Monte-Carlo shape the
// engine optimizes for — and the devices are inline step procs, so the
// bench isolates the engine's true per-action cost with zero goroutine
// park/wake.
func BenchmarkSchedulerDense256(b *testing.B) {
	const n = 256
	g := graph.GNP(n, 8.0/float64(n), 31)
	sim, err := radio.NewSimulator(g, radio.Config{Graph: g, Model: CDBench})
	if err != nil {
		b.Fatal(err)
	}
	procs := make([]denseProc, n)
	devs := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		devs[v].Proc = &procs[v]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range procs {
			procs[v] = denseProc{slots: 60}
		}
		if _, err := sim.RunDevices(uint64(i), devs); err != nil {
			b.Fatal(err)
		}
	}
}

// sparseProc spreads its actions far apart (cohorts of size 1) and
// transmits non-constant integer payloads, interned through BoxInt so
// the engine's per-transmit boxing allocation disappears.
type sparseProc struct {
	n, idx uint64
	k      uint64
}

func (p *sparseProc) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	if p.k >= 40 {
		return radio.Halt()
	}
	s := p.k*p.n + p.idx + 1
	k := p.k
	p.k++
	if k&1 == 0 {
		return radio.Transmit(s, radio.BoxInt(ch, int(s)))
	}
	return radio.Listen(s)
}

// BenchmarkSchedulerSparse256 is the adversarial case for a linear-scan
// scheduler: 256 devices whose action slots are spread far apart, so
// nearly every cohort is a single device and the per-slot O(n) scans
// dominate. It is also the scheduler's all-far case: each device's next
// request lies 256 slots ahead, past the 64-slot calendar wheel, so
// every request goes through the far heap at O(log n). Inline step
// procs remove the per-action park/wake, and BoxInt interning removes
// the non-constant-payload boxing allocation that used to dominate this
// bench's allocation profile.
func BenchmarkSchedulerSparse256(b *testing.B) {
	const n = 256
	g := graph.Path(n)
	sim, err := radio.NewSimulator(g, radio.Config{Graph: g, Model: CDBench})
	if err != nil {
		b.Fatal(err)
	}
	procs := make([]sparseProc, n)
	devs := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		devs[v].Proc = &procs[v]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range procs {
			procs[v] = sparseProc{n: n, idx: uint64(v)}
		}
		if _, err := sim.RunDevices(uint64(i), devs); err != nil {
			b.Fatal(err)
		}
	}
}

// CDBench aliases the model used by the scheduler benchmarks so both
// stay in sync if the contention model is changed.
const CDBench = radio.CD

// BenchmarkSweepWorkers measures the Monte-Carlo engine's scaling with
// pool size: trials are independent, so throughput should grow
// near-linearly until GOMAXPROCS is saturated. Skipped in -short mode
// (CI runs the functional sweep tests instead).
func BenchmarkSweepWorkers(b *testing.B) {
	if testing.Short() {
		b.Skip("sweep scaling benchmark skipped in short mode")
	}
	spec := sweep.Spec{
		Topologies: []sweep.Topology{{Kind: "path", N: 64}},
		Models:     []radio.Model{radio.Local},
		Algorithms: []core.Algorithm{core.AlgoAuto},
		Trials:     256,
		MasterSeed: 1,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := sweep.Run(spec, sweep.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Cells[0].Completed != spec.Trials {
					b.Fatalf("only %d/%d trials completed", rep.Cells[0].Completed, spec.Trials)
				}
			}
			b.ReportMetric(float64(spec.Trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkSweepTelemetry measures the observability overhead on the
// sweep hot path: the same fixed matrix with telemetry disabled (nil
// recorder — every hook is a nil-receiver no-op) versus enabled (shard
// counters updated once per trial batch). The two trials/s figures
// should be indistinguishable; a gap means instrumentation leaked into
// the per-slot path.
func BenchmarkSweepTelemetry(b *testing.B) {
	spec := sweep.Spec{
		Topologies: []sweep.Topology{{Kind: "path", N: 32}},
		Models:     []radio.Model{radio.NoCD},
		Algorithms: []core.Algorithm{core.AlgoBaselineDecay},
		Trials:     64,
		MasterSeed: 1,
	}
	run := func(b *testing.B, rec *telemetry.Recorder) {
		for i := 0; i < b.N; i++ {
			rep, err := sweep.Run(spec, sweep.Options{Workers: 2, Telemetry: rec})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Cells[0].Completed != spec.Trials {
				b.Fatalf("only %d/%d trials completed", rep.Cells[0].Completed, spec.Trials)
			}
		}
		b.ReportMetric(float64(spec.Trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, telemetry.New()) })
}

// throughputProc is the substrate-bench device: 100 contended slots.
type throughputProc struct {
	s uint64
}

func (p *throughputProc) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	p.s++
	if p.s > 100 {
		return radio.Halt()
	}
	if ch.Rand().Uint64()&1 == 0 {
		return radio.Transmit(p.s, p.s)
	}
	return radio.Listen(p.s)
}

// BenchmarkSimulatorThroughput measures the substrate itself: device
// actions per second on a dense contention workload, with the simulator
// reused across iterations as a Monte-Carlo sweep would and the devices
// driven inline through the step ABI.
func BenchmarkSimulatorThroughput(b *testing.B) {
	g := graph.Clique(64)
	sim, err := radio.NewSimulator(g, radio.Config{Graph: g, Model: radio.CD})
	if err != nil {
		b.Fatal(err)
	}
	procs := make([]throughputProc, 64)
	devs := make([]radio.Device, 64)
	for v := 0; v < 64; v++ {
		devs[v].Proc = &procs[v]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range procs {
			procs[v] = throughputProc{}
		}
		if _, err := sim.RunDevices(uint64(i), devs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastTrials measures plan sharing on W seeded Theorem 16
// trials on one topology: W Broadcast calls (solo) versus one
// BroadcastBatch call (batch16), which builds the plan — protocol
// constants, validation — once and runs the W seeds on it one after
// another. The diameter is cached on the graph, so both variants pay for
// it once; trials/s is the comparable metric and should be within noise
// between the two.
func BenchmarkBroadcastTrials(b *testing.B) {
	g := graph.Star(1024)
	const w = 16
	base := []core.Option{
		core.WithModel(radio.CD),
		core.WithAlgorithm(core.AlgoDiamTime),
		core.WithLeanScale(),
	}
	b.Run("solo", func(b *testing.B) {
		var sims radio.SimCache
		for i := 0; i < b.N; i++ {
			for t := 0; t < w; t++ {
				opts := append(append([]core.Option(nil), base...),
					core.WithSeed(uint64(i*w+t)), core.WithSimCache(&sims))
				if _, err := core.Broadcast(g, 0, opts...); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(w)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	})
	b.Run("batch16", func(b *testing.B) {
		var sims radio.SimCache
		opts := append(append([]core.Option(nil), base...), core.WithSimCache(&sims))
		seeds := make([]uint64, w)
		for i := 0; i < b.N; i++ {
			for t := range seeds {
				seeds[t] = uint64(i*w + t)
			}
			_, errs, err := core.BroadcastBatch(g, 0, seeds, opts...)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range errs {
				if e != nil {
					b.Fatal(e)
				}
			}
		}
		b.ReportMetric(float64(w)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	})
}
