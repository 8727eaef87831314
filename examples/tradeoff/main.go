// Tradeoff: Theorem 16's continuous time/energy dial. Sweeps beta (the
// partition rate, standing in for eps via beta = log^{-1/eps} n) on a
// low-diameter network and prints the achieved (time, energy) pairs,
// together with the two fixed points: iterative clustering (slow, lean)
// and the decay baseline (fast, hungry).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dtime"
	"repro/internal/graph"
	"repro/internal/radio"
)

func main() {
	g := graph.Star(48)
	d, err := g.Diameter()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %s (D=%d)\n\n", g.Name(), d)
	fmt.Printf("%-28s %12s %12s\n", "configuration", "slots", "max energy")

	for _, beta := range []float64{0.0625, 0.125, 0.25} {
		p, err := dtime.NewParamsBeta(radio.CD, g.N(), g.MaxDegree(), d, beta)
		if err != nil {
			log.Fatal(err)
		}
		p = p.Tune(g.N(), 0, 6, 10, 1) // lean C/CL, natural epoch counts
		res, devs, err := radio.Run(radio.Config{Graph: g, Model: radio.CD, Seed: 3, MaxSlots: 1 << 62},
			func(v int, out *dtime.DeviceResult) radio.Proc { return dtime.Proc(p, v == 0, "m", out) })
		if err != nil {
			log.Fatal(err)
		}
		informed := true
		for _, d := range devs {
			informed = informed && d.Informed
		}
		fmt.Printf("Theorem 16, beta=%-8.4f   %12d %12d (informed: %v)\n",
			beta, res.Slots, res.MaxEnergy(), informed)
	}

	ic, err := core.Broadcast(g, 0, core.WithModel(radio.CD), core.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %12d %12d\n", "iterclust (Theorem 12)", ic.Slots, ic.MaxEnergy())

	base, err := core.Broadcast(g, 0, core.WithAlgorithm(core.AlgoBaselineDecay), core.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %12d %12d\n", "decay baseline", base.Slots, base.MaxEnergy())
	fmt.Println()
	fmt.Println("Larger beta => fewer, coarser partition rounds (less time, more")
	fmt.Println("contention); the paper's eps knob moves along the same frontier.")
}
