// Ablation benchmarks for the SR-communication design choices described
// in internal/srcomm's package doc:
//
//   - the Remark 9 pre-check (CD receivers/senders leave irrelevant
//     SR-communication windows after O(1) slots) — the mechanism behind
//     Lemma 10's O(d + log n) CD energy;
//   - the Lemma 8 ACK slot (senders stop once their unique receiver is
//     served);
//   - decay phase count (failure probability vs energy in Lemma 7).
//
// Each reports energy metrics so `benchstat`-style comparison shows what
// the optimization buys.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/srcomm"
)

// runCDWindow runs one CD SR-communication window on a long path where
// only one end hosts a sender-receiver pair: with the pre-check, all the
// far-away receivers drop out immediately.
func runCDWindow(b *testing.B, p srcomm.CDParams, seed uint64) (*radio.Result, bool) {
	b.Helper()
	const n = 32
	g := graph.Path(n)
	wins := make([]srcomm.Window, n)
	procs := make([]radio.Proc, n)
	for v := 0; v < n; v++ {
		// Vertex 0 sends. Every other vertex is a would-be receiver;
		// only vertex 1 has a sender neighbor.
		wins[v].ArmCD(1, p, v == 0, "m")
		procs[v] = &wins[v]
	}
	res, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.CD, Seed: seed},
		radio.Procs(procs))
	if err != nil {
		b.Fatal(err)
	}
	_, ok := wins[1].Delivery()
	return res, ok
}

// BenchmarkAblationPrecheck compares CD SR-communication energy with and
// without the Remark 9 relevance pre-check.
func BenchmarkAblationPrecheck(b *testing.B) {
	for _, precheck := range []bool{true, false} {
		b.Run(fmt.Sprintf("precheck=%v", precheck), func(b *testing.B) {
			p := srcomm.CDParams{Delta: 2, Epochs: srcomm.CDEpochsForFailure(32, 2),
				Precheck: precheck}
			var total, maxE, delivered float64
			for i := 0; i < b.N; i++ {
				res, got := runCDWindow(b, p, uint64(i+1))
				total += float64(res.TotalEnergy())
				maxE += float64(res.MaxEnergy())
				if got {
					delivered++
				}
			}
			b.ReportMetric(total/float64(b.N), "totalEnergy/op")
			b.ReportMetric(maxE/float64(b.N), "maxEnergy/op")
			b.ReportMetric(delivered/float64(b.N), "delivered/op")
		})
	}
}

// BenchmarkAblationAck compares sender energy with and without the
// Lemma 8 special-case ACK slot (single sender, single receiver, long
// window).
func BenchmarkAblationAck(b *testing.B) {
	for _, ack := range []bool{true, false} {
		b.Run(fmt.Sprintf("ack=%v", ack), func(b *testing.B) {
			g := graph.Path(2)
			p := srcomm.CDParams{Delta: 1, Epochs: 100, Ack: ack}
			var senderE float64
			for i := 0; i < b.N; i++ {
				var send, recv srcomm.Window
				send.ArmCD(1, p, true, "m")
				recv.ArmCD(1, p, false, nil)
				res, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.CD,
					Seed: uint64(i + 1)}, radio.Procs([]radio.Proc{&send, &recv}))
				if err != nil {
					b.Fatal(err)
				}
				senderE += float64(res.Energy[0])
			}
			b.ReportMetric(senderE/float64(b.N), "senderEnergy/op")
		})
	}
}

// BenchmarkAblationDecayPhases sweeps the decay phase count: energy is
// linear in phases, delivery failures vanish once phases reach the
// w.h.p. regime (Lemma 7's f = exp(-Theta(phases))).
func BenchmarkAblationDecayPhases(b *testing.B) {
	for _, phases := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("phases=%d", phases), func(b *testing.B) {
			const k = 16
			g := graph.Star(k + 1)
			p := srcomm.DecayParams{Delta: k, Phases: phases}
			var maxE, delivered float64
			for i := 0; i < b.N; i++ {
				wins := make([]srcomm.Window, k+1)
				procs := make([]radio.Proc, k+1)
				for j := range wins {
					wins[j].ArmDecay(1, p, j > 0, j)
					procs[j] = &wins[j]
				}
				res, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.NoCD,
					Seed: uint64(i + 1)}, radio.Procs(procs))
				if err != nil {
					b.Fatal(err)
				}
				maxE += float64(res.MaxEnergy())
				if _, ok := wins[0].Delivery(); ok {
					delivered++
				}
			}
			b.ReportMetric(maxE/float64(b.N), "maxEnergy/op")
			b.ReportMetric(delivered/float64(b.N), "delivered/op")
		})
	}
}
