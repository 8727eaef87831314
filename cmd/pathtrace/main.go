// Command pathtrace regenerates Figure 1 of the paper: a timeline of
// message traffic in an example run of the Section 8 path algorithm.
// Each row is a time slot, each column a vertex; T marks a transmission,
// R a reception, and * the slot a vertex first holds the payload.
// Messages visibly propagate down-and-right except where a blocking
// vertex delays them, exactly as in the paper's figure.
//
// Usage:
//
//	pathtrace [-n 32] [-seed 7] [-slots 40]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/graph"
	"repro/internal/pathcast"
	"repro/internal/radio"
)

func main() {
	n := flag.Int("n", 32, "path length")
	seed := flag.Uint64("seed", 7, "random seed")
	maxRows := flag.Int("slots", 40, "timeline rows to print (0 = all)")
	flag.Parse()

	g := graph.Path(*n)
	type cell struct{ tx, rx bool }
	grid := map[uint64][]cell{}
	var maxSlot uint64
	trace := func(ev radio.Event) {
		row, ok := grid[ev.Slot]
		if !ok {
			row = make([]cell, *n)
			grid[ev.Slot] = row
		}
		switch ev.Kind {
		case radio.EventTransmit:
			row[ev.Dev].tx = true
		case radio.EventReceive:
			row[ev.Dev].rx = true
		}
		if ev.Slot > maxSlot {
			maxSlot = ev.Slot
		}
	}
	if err := pathcast.Validate(g, 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, devs, err := radio.Run(radio.Config{Graph: g, Model: radio.Local, Seed: *seed, Trace: trace},
		func(v int, out *pathcast.DeviceResult) radio.Proc {
			return pathcast.Proc(pathcast.Params{}, g.Neighbors(v), v == 0, "payload", out)
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("Figure 1 reproduction: path algorithm on n=%d (seed %d)\n", *n, *seed)
	fmt.Printf("worst-case bound 2n' = %d; actual delivery completed at slot %d\n",
		2*nextPow2(*n), pathcast.MaxReceiveSlot(devs))
	fmt.Println("T = transmit, R = receive, * = first holds payload, . = asleep")
	fmt.Println()
	fmt.Print("slot  ")
	for v := 0; v < *n; v++ {
		fmt.Print(string(rune('0' + v%10)))
	}
	fmt.Println()
	rows := 0
	for s := uint64(1); s <= maxSlot; s++ {
		if *maxRows > 0 && rows >= *maxRows {
			fmt.Printf("... (%d more slots)\n", maxSlot-s+1)
			break
		}
		row, ok := grid[s]
		if !ok {
			continue
		}
		rows++
		fmt.Printf("%4d  ", s)
		for v := 0; v < *n; v++ {
			c := byte('.')
			switch {
			case row[v].tx && row[v].rx:
				c = 'B'
			case row[v].tx:
				c = 'T'
			case row[v].rx:
				c = 'R'
			}
			if devs[v].ReceivedAt == s {
				c = '*'
			}
			fmt.Print(string(c))
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("per-vertex energy:")
	for v := 0; v < *n; v++ {
		fmt.Printf("%d ", res.Energy[v])
	}
	fmt.Println()
	fmt.Printf("max energy %d over %d slots (devices sleep through the rest)\n",
		res.MaxEnergy(), res.Slots)
}

func nextPow2(x int) int {
	v := 1
	for v < x {
		v *= 2
	}
	return v
}
