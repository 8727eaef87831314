// Command broadcastcli runs one Broadcast configuration from flags and
// prints the measured result.
//
// Usage:
//
//	broadcastcli -topo path -n 64 -model local -algo auto -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sweep"
)

func main() {
	topo := flag.String("topo", "gnp", "topology: path|cycle|clique|star|k2k|grid|hypercube|tree|gnp|bdeg|caterpillar|lollipop")
	n := flag.Int("n", 32, "vertex count (interpretation depends on topology)")
	model := flag.String("model", "nocd", "channel model: nocd|cd|cdstar|local")
	algo := flag.String("algo", "auto", "algorithm: auto|iterclust|theorem12|dtime|cdmerge|path|bounded-degree|deterministic|baseline-decay")
	seed := flag.Uint64("seed", 1, "random seed")
	source := flag.Int("source", 0, "broadcasting vertex")
	lean := flag.Bool("lean", true, "experiment-scale constants for heavy algorithms")
	flag.Parse()

	g, err := buildGraph(*topo, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	models, err := sweep.ParseModels(*model)
	if err == nil && len(models) != 1 {
		err = fmt.Errorf("-model takes one model, got %q", *model)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	algos, err := sweep.ParseAlgorithms(*algo)
	if err == nil && len(algos) != 1 {
		err = fmt.Errorf("-algo takes one algorithm, got %q", *algo)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := []core.Option{core.WithModel(models[0]), core.WithAlgorithm(algos[0]), core.WithSeed(*seed)}
	if *lean {
		opts = append(opts, core.WithLeanScale())
	}
	res, err := core.Broadcast(g, *source, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	d, _ := g.Diameter()
	fmt.Printf("graph       %s (n=%d, m=%d, Delta=%d, D=%d)\n", g.Name(), g.N(), g.M(), g.MaxDegree(), d)
	fmt.Printf("model       %s\n", res.Model)
	fmt.Printf("algorithm   %s\n", res.Algorithm)
	fmt.Printf("informed    %v\n", res.AllInformed())
	fmt.Printf("time        %d slots\n", res.Slots)
	fmt.Printf("energy      max %d, total %d, mean %.1f\n",
		res.MaxEnergy(), res.TotalEnergy(), float64(res.TotalEnergy())/float64(g.N()))
}

func buildGraph(topo string, n int, seed uint64) (*graph.Graph, error) {
	switch strings.ToLower(topo) {
	case "path":
		return graph.Path(n), nil
	case "cycle":
		return graph.Cycle(n), nil
	case "clique":
		return graph.Clique(n), nil
	case "star":
		return graph.Star(n), nil
	case "k2k":
		return graph.K2k(n), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return graph.Grid(side, side), nil
	case "hypercube":
		d := 0
		for 1<<uint(d) < n {
			d++
		}
		return graph.Hypercube(d), nil
	case "tree":
		return graph.RandomTree(n, seed), nil
	case "gnp":
		return graph.GNP(n, 8.0/float64(n), seed), nil
	case "bdeg":
		return graph.RandomBoundedDegree(n, 4, seed), nil
	case "caterpillar":
		return graph.Caterpillar(n/4+1, 3), nil
	case "lollipop":
		return graph.Lollipop(n/2, n/2), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
}
