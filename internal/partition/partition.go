// Package partition implements Partition(beta), the Miller-Peng-Xu
// random-shift clustering of Section 6 (as adapted to radio networks by
// Haeupler and Wajc): every vertex draws delta_v ~ Exponential(beta) and
// conceptually joins the cluster of the center u minimizing
// dist(u,v) - delta_u.
//
// The distributed implementation runs 2 log n / beta epochs. A vertex
// whose start time start_v = T - ceil(delta_v) has arrived and which is
// still unclustered becomes a cluster center; during every epoch one
// SR-communication lets clustered vertices recruit unclustered neighbors.
// The resulting cluster assignment doubles as a good labeling (the layer
// is the recruitment depth), which is what the Theorem 16 algorithm
// iterates on.
//
// Key properties (Lemma 14, verified statistically in tests and benches):
// an edge is cut between clusters with probability at most 2*beta, and
// the cluster-graph diameter contracts to <= 3*beta*D w.h.p. (Lemma 15).
package partition

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/srcomm"
)

// Params configures one Partition(beta) run; all fields are global
// knowledge.
type Params struct {
	// Beta is the exponential rate (0 < Beta < 1).
	Beta float64
	// Epochs is the round count T (the paper's 2 log n / beta).
	Epochs int
	// SR is the per-epoch SR-communication window.
	SR cluster.Spec
}

// NewParams returns the standard parameterization for an n-vertex,
// degree-delta network under the given model.
func NewParams(model radio.Model, n, delta int, beta float64) (Params, error) {
	if beta <= 0 || beta >= 1 {
		return Params{}, fmt.Errorf("partition: beta %v outside (0,1)", beta)
	}
	logN := float64(rng.Log2Ceil(n) + 1)
	t := int(math.Ceil(2 * logN / beta))
	if t < 2 {
		t = 2
	}
	return Params{
		Beta:   beta,
		Epochs: t,
		SR:     cluster.NewSpec(model, n, delta),
	}, nil
}

// Slots returns the total window length of the protocol.
func (p Params) Slots() uint64 {
	return uint64(p.Epochs) * p.SR.Slots()
}

// Result is one device's outcome.
type Result struct {
	// Cluster is the cluster id (the center's vertex index).
	Cluster int
	// Layer is the device's recruitment depth (0 for centers) — a good
	// labeling across the graph.
	Layer int
	// Delta is the device's exponential shift delta_v.
	Delta float64
	// Start is the device's start epoch (1-based).
	Start int
}

// msg is the recruitment payload.
type msg struct {
	cluster int
	layer   int
}

// Proc returns the device step machine executing Partition(beta) in the
// window [start, start+Slots()). The exponential shift is drawn at the
// device's first step; every device ends clustered, and the device
// halts when the window ends. Every epoch re-arms the device's one
// SR-communication window.
func Proc(p Params, start uint64, out *Result) radio.Proc {
	w := p.SR.Slots()
	return radio.ContProc(func(ch radio.Channel) radio.Cont {
		win := new(srcomm.Window)
		delta := rng.Exponential(ch.Rand(), p.Beta)
		st := p.Epochs - int(math.Ceil(delta))
		if st < 1 {
			st = 1
		}
		*out = Result{Cluster: -1, Delta: delta, Start: st}
		finish := radio.Do(func() {
			if out.Cluster < 0 {
				// Start time never arrived while unclustered (cannot happen:
				// start <= Epochs forces self-start), but stay safe.
				out.Cluster = ch.Index()
				out.Layer = 0
			}
		}, nil)
		var epoch func(t int) radio.Cont
		epoch = func(t int) radio.Cont {
			if t > p.Epochs {
				return finish
			}
			ws := start + uint64(t-1)*w
			next := radio.Eval(func() radio.Cont { return epoch(t + 1) })
			return radio.Eval(func() radio.Cont {
				if out.Cluster < 0 && out.Start == t {
					// Become the center of a fresh cluster.
					out.Cluster = ch.Index()
					out.Layer = 0
				}
				if out.Cluster >= 0 {
					return p.SR.SendCont(win, ws, msg{cluster: out.Cluster, layer: out.Layer}, next)
				}
				return p.SR.ReceiveCont(win, ws, func(m any) {
					if mm, isMsg := m.(msg); isMsg {
						out.Cluster = mm.cluster
						out.Layer = mm.layer + 1
					}
				}, next)
			})
		}
		return epoch(1)
	})
}

// Clusters returns the distinct cluster ids of a run's per-device
// results, in order of first appearance.
func Clusters(devs []Result) []int {
	seen := make(map[int]bool)
	var out []int
	for _, d := range devs {
		if !seen[d.Cluster] {
			seen[d.Cluster] = true
			out = append(out, d.Cluster)
		}
	}
	return out
}

// CutEdges returns the number of edges of g whose endpoints lie in
// different clusters; devs[v] is vertex v's result.
func CutEdges(g *graph.Graph, devs []Result) int {
	cut := 0
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if u > v && devs[v].Cluster != devs[u].Cluster {
				cut++
			}
		}
	}
	return cut
}

// ClusterGraph contracts each cluster of g to a vertex and returns the
// resulting graph plus the cluster ids in index order; devs[v] is vertex
// v's result.
func ClusterGraph(g *graph.Graph, devs []Result) (*graph.Graph, []int) {
	ids := Clusters(devs)
	idx := make(map[int]int, len(ids))
	for i, c := range ids {
		idx[c] = i
	}
	cg := graph.New(len(ids))
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			cv, cu := idx[devs[v].Cluster], idx[devs[u].Cluster]
			if cv != cu && !cg.HasEdge(cv, cu) {
				if err := cg.AddEdge(cv, cu); err != nil {
					panic(err)
				}
			}
		}
	}
	cg.SetName(fmt.Sprintf("partition-of-%s", g.Name()))
	return cg, ids
}
