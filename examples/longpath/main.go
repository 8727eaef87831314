// Longpath: the Section 8 special case — a chain of relay nodes. Runs the
// provably optimal path algorithm (Theorem 21: 2n worst-case time,
// O(log n) expected per-vertex energy) and prints the per-vertex energy
// profile plus a compact Figure-1-style timeline.
package main

import (
	"fmt"
	"log"

	"repro/internal/graph"
	"repro/internal/pathcast"
	"repro/internal/radio"
)

func main() {
	const n = 48
	g := graph.Path(n)
	var transmissions []radio.Event
	cfg := radio.Config{Graph: g, Model: radio.Local, Seed: 9, Trace: func(ev radio.Event) {
		if ev.Kind == radio.EventTransmit {
			transmissions = append(transmissions, ev)
		}
	}}
	res, devs, err := radio.Run(cfg, func(v int, out *pathcast.DeviceResult) radio.Proc {
		return pathcast.Proc(pathcast.Params{}, g.Neighbors(v), v == 0, "payload", out)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("path of %d relays; delivery completed at slot %d (bound 2n' = %d)\n",
		n, pathcast.MaxReceiveSlot(devs), 2*nextPow2(n))
	fmt.Printf("total transmissions: %d; max per-vertex energy: %d\n\n",
		len(transmissions), res.MaxEnergy())

	fmt.Println("vertex : energy : first-holds-payload slot")
	for v := 0; v < n; v += 4 {
		fmt.Printf("%6d : %6d : %d\n", v, res.Energy[v], devs[v].ReceivedAt)
	}
	fmt.Println()
	fmt.Println("Blocking vertices (large B) delay the payload but shield everyone")
	fmt.Println("downstream from synchronization chatter — the Figure 1 dynamic.")
}

func nextPow2(x int) int {
	v := 1
	for v < x {
		v *= 2
	}
	return v
}
