// Command energybench runs the full evaluation suite: one experiment per
// row of the paper's Table 1 (plus the Partition(beta) lemmas and the
// decay baseline), printing measured time (slots) and energy
// (max transmit+listen per device) across size sweeps together with
// fitted growth shapes. bench/README.md documents the repository's
// recorded benchmark.
//
// Every row that core.Broadcast or a registered workload measures is a
// sweep.Spec that sweep.Run runs with master seed 1 and -seeds trials
// per cell, so `sweep` reproduces its table: the iterclust row's is
// `sweep -topo gnp:16,32,64,128:seed=11 -models local,nocd -algos
// iterclust -trials 3 -seed 1`'s. No workload measures the Theorem 21
// row's maximum receive slot or the Partition(beta) row's cut fraction,
// so those two rows run radio.Run directly on sweep.CollectTrials, with
// seeds 1..k.
//
// Usage:
//
//	energybench [-quick] [-seeds k] [-workers n] [-manifest run.manifest.json]
//
// -manifest writes a run manifest (see internal/telemetry): trial
// counts, simulated-slot totals, and one timed phase per suite row,
// followed by the engine's resolve, trials and aggregate phases of each
// sweep the row runs, so a recorded evaluation carries its own
// provenance.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pathcast"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

var (
	quick    = flag.Bool("quick", false, "smaller sweeps")
	seeds    = flag.Int("seeds", 3, "trials per configuration")
	workers  = flag.Int("workers", 0, "parallel trials per configuration (0 = GOMAXPROCS)")
	manifest = flag.String("manifest", "", "write a run manifest (trial counts, per-row phase timings) to this file")

	// rec collects suite telemetry when -manifest asks for it; nil (all
	// hooks no-op) otherwise.
	rec *telemetry.Recorder
)

func main() {
	flag.Parse()
	if *manifest != "" {
		rec = telemetry.New()
	}
	fmt.Println("The Energy Complexity of Broadcast (PODC 2018) — measured reproduction")
	fmt.Println()
	// One timed manifest phase per suite row.
	for _, row := range []struct {
		name string
		fn   func()
	}{
		{"iterclust", rowIterClust},
		{"theorem12", rowTheorem12},
		{"cdmerge", rowCDMerge},
		{"diamtime", rowDiamTime},
		{"bounded-degree", rowBoundedDegree},
		{"path", rowPath},
		{"deterministic", rowDeterministic},
		{"lower-bounds", rowLowerBounds},
		{"partition", rowPartition},
		{"baseline", rowBaselineComparison},
		{"workload-sweeps", rowWorkloadSweeps},
	} {
		rec.Phase(row.name)
		row.fn()
	}
	if *manifest != "" {
		m := rec.BuildManifest("energybench", map[string]any{
			"quick": *quick, "seeds": *seeds,
		}, nil, *workers)
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "energybench:", err)
			os.Exit(1)
		}
	}
}

func sizes(full []int, quickSizes []int) []int {
	if *quick {
		return quickSizes
	}
	return full
}

// topos lists one topology of kind per size, with generator seed seed
// and, for gnp, edge probability pn/n (pn = 0 keeps the engine's 8/n).
func topos(kind string, ns []int, pn float64, seed uint64) []sweep.Topology {
	out := make([]sweep.Topology, len(ns))
	for i, n := range ns {
		out[i] = sweep.Topology{Kind: kind, N: n, P: pn / float64(n), Seed: seed}
	}
	return out
}

// run runs one row's spec on the sweep engine, with master seed 1,
// -seeds trials per cell and the suite's recorder, and prints its
// table. The engine counts the trials on the recorder; the recorder's
// cell table ends up reflecting the last sweep run.
func run(spec sweep.Spec) *sweep.Report {
	spec.Trials, spec.MasterSeed = *seeds, 1
	rep, err := sweep.Run(spec, sweep.Options{Workers: *workers, Telemetry: rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "energybench:", err)
		os.Exit(1)
	}
	fmt.Print(rep.Table())
	return rep
}

// modelCells lists the report's cells run under model m.
func modelCells(rep *sweep.Report, m radio.Model) []sweep.CellReport {
	var out []sweep.CellReport
	for _, c := range rep.Cells {
		if c.Model == m.String() {
			out = append(out, c)
		}
	}
	return out
}

// fitNote fits the growth in n of the cells' mean slots and mean max
// energy.
func fitNote(cells []sweep.CellReport) string {
	var ns, ts, es []float64
	for _, c := range cells {
		ns = append(ns, float64(c.N))
		ts = append(ts, c.Slots.Mean)
		es = append(es, c.MaxEnergy.Mean)
	}
	return fmt.Sprintf("growth: time ~ n^%.2f, energy ~ n^%.2f",
		stats.LogLogSlope(ns, ts), stats.LogLogSlope(ns, es))
}

var (
	cd    = []radio.Model{radio.CD}
	noCD  = []radio.Model{radio.NoCD}
	local = []radio.Model{radio.Local}
)

func rowIterClust() {
	fmt.Println("== T1-R1 / T1-R8: randomized iterative clustering (Theorem 11) ==")
	fmt.Println("   paper: LOCAL O(n log n) time / O(log n) energy;")
	fmt.Println("          No-CD O(n logD log^2 n) time / O(logD log^2 n) energy")
	rep := run(sweep.Spec{
		Topologies: topos("gnp", sizes([]int{16, 32, 64, 128}, []int{16, 32}), 0, 11),
		Models:     []radio.Model{radio.Local, radio.NoCD},
		Algorithms: []core.Algorithm{core.AlgoIterClust},
	})
	fmt.Println("   LOCAL " + fitNote(modelCells(rep, radio.Local)))
	fmt.Println("   No-CD " + fitNote(modelCells(rep, radio.NoCD)))
	fmt.Println()
}

func rowTheorem12() {
	fmt.Println("== T1-R5: CD iterative clustering (Theorem 12) ==")
	fmt.Println("   paper: O(n logD log^{2+eps} n/(eps loglog n)) time, O(log^2 n/(eps loglog n)) energy")
	rep := run(sweep.Spec{
		Topologies: topos("gnp", sizes([]int{16, 32, 64, 128}, []int{16, 32}), 0, 13),
		Models:     cd,
		Algorithms: []core.Algorithm{core.AlgoTheorem12},
	})
	fmt.Println("   " + fitNote(rep.Cells))
	fmt.Println()
}

func rowCDMerge() {
	fmt.Println("== T1-R6: CD merge algorithm (Theorem 20) ==")
	fmt.Println("   paper: O(Delta n^{1+xi}) time, O(log n(loglogD+1/xi)/logloglogD) energy")
	rep := run(sweep.Spec{
		Topologies: topos("gnp", sizes([]int{12, 16, 24, 32}, []int{12, 16}), 6, 17),
		Models:     cd,
		Algorithms: []core.Algorithm{core.AlgoCDMerge},
		Lean:       true,
	})
	fmt.Println("   " + fitNote(rep.Cells))
	fmt.Println("   (time is super-linear by design; energy stays polylog)")
	fmt.Println()
}

func rowDiamTime() {
	fmt.Println("== T1-R2: near-diameter time (Theorem 16) ==")
	fmt.Println("   paper: O(D^{1+eps} polylog n) time, O(polylog n) energy")
	fmt.Println("   shape check: on stars (D = 2), dtime's time should grow far")
	fmt.Println("   slower than the Theta(n polylog) of iterative clustering.")
	run(sweep.Spec{
		Topologies: topos("star", sizes([]int{16, 32, 64}, []int{16, 32}), 0, 0),
		Models:     cd,
		Algorithms: []core.Algorithm{core.AlgoDiamTime, core.AlgoIterClust},
	})
	fmt.Println()
}

func rowBoundedDegree() {
	fmt.Println("== T1-R3: bounded degree No-CD via LOCAL simulation (Corollary 13) ==")
	fmt.Println("   paper: O(n log n) time, O(log n) energy for Delta = O(1)")
	rep := run(sweep.Spec{
		Topologies: topos("cycle", sizes([]int{12, 16, 24, 32}, []int{12, 16}), 0, 0),
		Models:     noCD,
		Algorithms: []core.Algorithm{core.AlgoBoundedDegree},
	})
	fmt.Println("   " + fitNote(rep.Cells))
	fmt.Println()
}

func rowPath() {
	fmt.Println("== Theorem 21 / Figure 1: the path algorithm ==")
	fmt.Println("   paper: worst-case 2n time, expected O(log n) per-vertex energy")
	tbl := &stats.Table{Header: []string{"n", "max recv slot", "2n bound", "mean E", "max E"}}
	var ns, es []float64
	for _, n := range sizes([]int{32, 64, 128, 256, 512}, []int{32, 128}) {
		g := graph.Path(n)
		type sample struct{ recv, meanE, maxE float64 }
		samples := sweep.CollectTrials(*seeds, *workers, func(i int) (sample, bool) {
			res, devs, err := radio.Run(radio.Config{Graph: g, Model: radio.Local, Seed: uint64(i + 1)},
				func(v int, o *pathcast.DeviceResult) radio.Proc {
					return pathcast.Proc(pathcast.Params{}, g.Neighbors(v), v == 0, "m", o)
				})
			if err != nil {
				return sample{}, false
			}
			for _, d := range devs {
				if !d.Informed {
					return sample{}, false
				}
			}
			return sample{
				recv:  float64(pathcast.MaxReceiveSlot(devs)),
				meanE: float64(res.TotalEnergy()) / float64(n),
				maxE:  float64(res.MaxEnergy()),
			}, true
		})
		rec.Add(len(samples), 0)
		var recv, meanE, maxE []float64
		for _, s := range samples {
			recv = append(recv, s.recv)
			meanE = append(meanE, s.meanE)
			maxE = append(maxE, s.maxE)
		}
		tbl.Add(n, stats.Max(recv), 2*n, stats.Mean(meanE), stats.Max(maxE))
		ns, es = append(ns, float64(n)), append(es, stats.Mean(meanE))
	}
	fmt.Print(tbl)
	fmt.Printf("   mean-energy growth: ~ n^%.2f (logarithmic => near 0)\n", stats.LogLogSlope(ns, es))
	fmt.Println()
}

func rowDeterministic() {
	fmt.Println("== T1-R11 / T1-R12: deterministic algorithms (Theorems 25, 27) ==")
	fmt.Println("   paper: LOCAL O(n log n logN) time / O(log n logN) energy;")
	fmt.Println("          CD O(N^2 n log n logN) time / O(log^3 N log n) energy")
	run(sweep.Spec{
		Topologies: topos("gnp", sizes([]int{8, 12, 16, 24}, []int{8, 12}), 6, 23),
		Models:     []radio.Model{radio.Local, radio.CD},
		Algorithms: []core.Algorithm{core.AlgoDeterministic},
	})
	fmt.Println()
}

func rowLowerBounds() {
	fmt.Println("== T1-R4/R7/R9: lower-bound experiments ==")
	fmt.Println("   Theorem 2: Broadcast energy on K_{2,k} is at least half the")
	fmt.Println("   single-hop LeaderElection time; Theorem 1: Omega(log n) on paths.")
	ks := sizes([]int{4, 8, 16, 32}, []int{4, 16})
	k2k := run(sweep.Spec{
		Topologies: topos("k2k", ks, 0, 0),
		Models:     cd,
		Algorithms: []core.Algorithm{core.AlgoIterClust},
	})
	// Single-hop CD leader election on a k-clique for reference.
	le := run(sweep.Spec{
		Topologies:     topos("clique", ks, 0, 0),
		Models:         cd,
		Workload:       "leader",
		WorkloadParams: map[string]string{"maxslots": "4000"},
	})
	// Theorem 1 on paths: worst-vertex energy of the best path algorithm.
	paths := run(sweep.Spec{
		Topologies: topos("path", sizes([]int{64, 256, 1024}, []int{64, 256}), 0, 0),
		Models:     local,
		Algorithms: []core.Algorithm{core.AlgoPath},
	})
	tbl := &stats.Table{Header: []string{"experiment", "param", "measured", "bound side"}}
	for i, c := range k2k.Cells {
		tbl.Add("K2k CD energy vs LE time", ks[i], c.MaxEnergy.Mean, electSlot(le.Cells[i]))
	}
	for _, c := range paths.Cells {
		tbl.Add("path worst-vertex energy", c.N, c.MaxEnergy.Mean, fmt.Sprintf("Omega(log n)=%d/5", rng.Log2Ceil(c.N)))
	}
	fmt.Print(tbl)
	fmt.Println()
}

// electSlot is a leader cell's mean election slot, or "-" if no
// election in it succeeded.
func electSlot(c sweep.CellReport) any {
	for _, e := range c.Extra {
		if e.Name == "electSlot" {
			return e.Mean
		}
	}
	return "-"
}

func rowPartition() {
	fmt.Println("== Lemmas 14-15: Partition(beta) ==")
	fmt.Println("   paper: P[edge cut] <= 2 beta; cluster diameter <= 3 beta D w.h.p.")
	tbl := &stats.Table{Header: []string{"beta", "graph", "cut fraction", "2*beta", "D", "cluster D"}}
	g := graph.Grid(8, 8)
	d0, _ := g.Diameter()
	for _, beta := range []float64{0.15, 0.3, 0.6} {
		type sample struct {
			cut, cd float64
			okCD    bool
		}
		samples := sweep.CollectTrials(*seeds, *workers, func(i int) (sample, bool) {
			p, err := partition.NewParams(radio.Local, g.N(), g.MaxDegree(), beta)
			if err != nil {
				return sample{}, false
			}
			_, devs, err := radio.Run(radio.Config{Graph: g, Model: p.SR.Model, Seed: uint64(i + 1)},
				func(_ int, o *partition.Result) radio.Proc { return partition.Proc(p, 1, o) })
			if err != nil {
				return sample{}, false
			}
			s := sample{cut: float64(partition.CutEdges(g, devs)) / float64(g.M())}
			cg, _ := partition.ClusterGraph(g, devs)
			if cg.N() > 0 {
				if cd, err := cg.Diameter(); err == nil {
					s.cd, s.okCD = float64(cd), true
				}
			}
			return s, true
		})
		rec.Add(len(samples), 0)
		var cuts, cds []float64
		for _, s := range samples {
			cuts = append(cuts, s.cut)
			if s.okCD {
				cds = append(cds, s.cd)
			}
		}
		tbl.Add(beta, g.Name(), stats.Mean(cuts), 2*beta, d0, stats.Mean(cds))
	}
	fmt.Print(tbl)
	fmt.Println()
}

// rowWorkloadSweeps exercises the pluggable-workload engine: Lemma 8's
// leader-election subroutine measured directly (success rate, time and
// energy of the single-hop elections the broadcast algorithms build on),
// the Theorem 16 beta dial as a sweep grid, and k-source broadcast with
// per-source informed fronts.
func rowWorkloadSweeps() {
	fmt.Println("== Workload sweeps: leader election, time/energy dial, k-source ==")
	fmt.Println("   paper: single-hop election is the broadcast subroutine (Lemma 8);")
	fmt.Println("   Theorem 16's beta trades time for energy on one frontier.")
	cliques := []sweep.Topology{{Kind: "clique", N: 16}, {Kind: "clique", N: 64}}
	if *quick {
		cliques = cliques[:1]
	}
	run(sweep.Spec{
		Topologies:     cliques,
		Models:         []radio.Model{radio.CD, radio.NoCD},
		Workload:       "leader",
		WorkloadParams: map[string]string{"proto": "rand,det"},
	})
	run(sweep.Spec{
		Topologies: []sweep.Topology{{Kind: "star", N: 24}},
		Models:     cd,
		Workload:   "tradeoff",
		Lean:       true,
	})
	run(sweep.Spec{
		Topologies:     []sweep.Topology{{Kind: "cycle", N: 32}},
		Models:         local,
		Workload:       "msrc",
		WorkloadParams: map[string]string{"k": "2,4"},
	})
	fmt.Println()
}

func rowBaselineComparison() {
	fmt.Println("== Baseline: BGI decay broadcast vs the paper's algorithms ==")
	fmt.Println("   shape: decay wins on time, loses on energy, with the energy gap")
	fmt.Println("   growing with n.")
	ns := sizes([]int{32, 64, 128}, []int{32, 64})
	decay := run(sweep.Spec{
		Topologies: topos("path", ns, 0, 0),
		Models:     noCD,
		Algorithms: []core.Algorithm{core.AlgoBaselineDecay},
	})
	paper := run(sweep.Spec{
		Topologies: topos("path", ns, 0, 0),
		Models:     local,
		Algorithms: []core.Algorithm{core.AlgoPath},
	})
	gaps := make([]string, len(ns))
	for i, n := range ns {
		gaps[i] = fmt.Sprintf("n=%d %.1fx", n, decay.Cells[i].MaxEnergy.Mean/paper.Cells[i].MaxEnergy.Mean)
	}
	fmt.Println("   energy gap (decay maxE / path maxE): " + strings.Join(gaps, ", "))
	fmt.Println()
}
