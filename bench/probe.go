package main

import (
	"math/rand/v2"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by a third for
// minutes at a time when neighbours load the memory system. The timed
// pass therefore runs a fixed probe after every CLI run and reports each
// timing at the speed the probe had on the box the baseline was recorded
// on: measured time × probeRef ÷ the run's median probe time. The probe
// does not depend on the code under test, so no change to that code can
// move it. README.md shows how far it steadies the metrics.

// probeRef is the probe's median time, in seconds, on the baseline box.
const probeRef = 0.25

var probeSink uint64

// probe times a fixed kernel: integer arithmetic, then building, walking
// and dropping shuffled linked lists of small heap objects larger than
// the caches. Its two halves take about equal time; that mix tracked the
// workloads' slowdowns best (README.md).
func probe() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 60_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	type node struct {
		next *node
		val  [4]uint64
	}
	r := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 4; round++ {
		const n = 1 << 18
		nodes := make([]*node, n)
		for i := range nodes {
			nodes[i] = &node{val: [4]uint64{uint64(i)}}
		}
		perm := r.Perm(n)
		for i := 0; i < n-1; i++ {
			nodes[perm[i]].next = nodes[perm[i+1]]
		}
		for p := nodes[perm[0]]; p != nil; p = p.next {
			x += p.val[0]
		}
	}
	probeSink += x
	return time.Since(t0)
}
