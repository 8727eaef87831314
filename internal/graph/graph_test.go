package graph

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("New(5): N=%d M=%d", g.N(), g.M())
	}
	if g.MaxDegree() != 0 {
		t.Fatalf("empty graph MaxDegree = %d", g.MaxDegree())
	}
	if New(-3).N() != 0 {
		t.Fatal("New(-3) should have 0 vertices")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Fatal("reversed duplicate edge accepted")
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative vertex accepted")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d after one valid edge", g.M())
	}
}

func TestHasEdgeAndDegree(t *testing.T) {
	g := Star(5)
	if !g.HasEdge(0, 3) || !g.HasEdge(3, 0) {
		t.Fatal("star missing center edge")
	}
	if g.HasEdge(1, 2) {
		t.Fatal("star has leaf-leaf edge")
	}
	if g.HasEdge(-1, 2) || g.HasEdge(0, 99) {
		t.Fatal("HasEdge out of range should be false")
	}
	if g.Degree(0) != 4 || g.Degree(1) != 1 {
		t.Fatalf("star degrees: %d, %d", g.Degree(0), g.Degree(1))
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("star MaxDegree = %d", g.MaxDegree())
	}
}

func TestBFSAndDiameterPath(t *testing.T) {
	g := Path(10)
	dist := g.BFS(0)
	for i := 0; i < 10; i++ {
		if dist[i] != i {
			t.Fatalf("path BFS dist[%d] = %d", i, dist[i])
		}
	}
	d, err := g.Diameter()
	if err != nil || d != 9 {
		t.Fatalf("path-10 diameter = %d, %v", d, err)
	}
}

func TestDiameterKnownValues(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{Clique(6), 1},
		{Star(8), 2},
		{K2k(5), 2},
		{Grid(4, 6), 8},
		{Hypercube(4), 4},
		{Cycle(8), 4},
		{Cycle(9), 4},
	}
	for _, c := range cases {
		d, err := c.g.Diameter()
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name(), err)
		}
		if d != c.want {
			t.Errorf("%s diameter = %d, want %d", c.g.Name(), d, c.want)
		}
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if _, err := g.Diameter(); err == nil {
		t.Fatal("Diameter on disconnected graph should error")
	}
	if _, err := g.Eccentricity(0); err == nil {
		t.Fatal("Eccentricity on disconnected graph should error")
	}
}

func TestK2kStructure(t *testing.T) {
	for _, k := range []int{1, 2, 7} {
		g := K2k(k)
		if g.N() != k+2 {
			t.Fatalf("K2k(%d): N = %d", k, g.N())
		}
		if g.HasEdge(0, 1) {
			t.Fatal("K2k: s and t must not be adjacent")
		}
		if g.Degree(0) != k || g.Degree(1) != k {
			t.Fatalf("K2k(%d): deg(s)=%d deg(t)=%d", k, g.Degree(0), g.Degree(1))
		}
		for i := 2; i < g.N(); i++ {
			if g.Degree(i) != 2 {
				t.Fatalf("K2k middle vertex degree %d", g.Degree(i))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTwoHopNeighbors(t *testing.T) {
	g := Path(6)
	n2 := g.TwoHopNeighbors(2)
	want := []int{0, 1, 3, 4}
	if len(n2) != len(want) {
		t.Fatalf("TwoHopNeighbors(2) = %v", n2)
	}
	for i := range want {
		if n2[i] != want[i] {
			t.Fatalf("TwoHopNeighbors(2) = %v, want %v", n2, want)
		}
	}
	// Endpoint.
	n2 = g.TwoHopNeighbors(0)
	if len(n2) != 2 || n2[0] != 1 || n2[1] != 2 {
		t.Fatalf("TwoHopNeighbors(0) = %v", n2)
	}
}

func TestGeneratorsValidateAndConnect(t *testing.T) {
	gs := []*Graph{
		Path(1), Path(17), Cycle(3), Cycle(12), Clique(9), Star(11),
		K2k(4), Grid(3, 7), Hypercube(5), RandomTree(40, 1),
		GNP(40, 0.15, 2), RandomBoundedDegree(50, 4, 3),
		Caterpillar(8, 3), Lollipop(6, 10),
	}
	for _, g := range gs {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
		if !g.IsConnected() {
			t.Errorf("%s: not connected", g.Name())
		}
	}
}

func TestRandomBoundedDegreeRespectsBound(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := RandomBoundedDegree(64, 4, seed)
		if g.MaxDegree() > 4 {
			t.Fatalf("seed %d: MaxDegree %d > 4", seed, g.MaxDegree())
		}
	}
	// maxDeg < 2 is clamped to 2 and still yields a connected path.
	g := RandomBoundedDegree(10, 1, 0)
	if !g.IsConnected() || g.MaxDegree() > 2 {
		t.Fatal("RandomBoundedDegree(10,1) invalid")
	}
}

func TestGNPDeterministicPerSeed(t *testing.T) {
	a := GNP(30, 0.2, 7)
	b := GNP(30, 0.2, 7)
	if a.M() != b.M() {
		t.Fatalf("GNP not deterministic: %d vs %d edges", a.M(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("GNP adjacency differs at %d", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("GNP adjacency differs at %d", v)
			}
		}
	}
}

func TestGNPSparseFallbackConnects(t *testing.T) {
	// p = 0 can never be connected by sampling; the fallback must stitch.
	g := GNP(12, 0, 5)
	if !g.IsConnected() {
		t.Fatal("GNP fallback did not produce a connected graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCaterpillarShape(t *testing.T) {
	g := Caterpillar(5, 2)
	if g.N() != 15 {
		t.Fatalf("caterpillar N = %d", g.N())
	}
	// Interior spine vertices: 2 spine neighbors + 2 legs.
	if g.Degree(2) != 4 {
		t.Fatalf("caterpillar interior spine degree = %d", g.Degree(2))
	}
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if d != 6 { // leg - spine(0..4) - leg
		t.Fatalf("caterpillar diameter = %d", d)
	}
}

func TestLollipopShape(t *testing.T) {
	g := Lollipop(4, 6)
	if g.N() != 10 {
		t.Fatalf("lollipop N = %d", g.N())
	}
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 { // across clique (1) + tail (6)
		t.Fatalf("lollipop diameter = %d", d)
	}
}

// assertSorted fails unless every adjacency list of g is strictly
// ascending — the constructor invariant the radio engine's collision
// resolution depends on (it dropped its per-listener sort).
func assertSorted(t *testing.T, g *Graph) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatalf("%s: Neighbors(%d) not sorted: %v", g.Name(), v, nb)
			}
		}
	}
}

// TestNeighborsSortedInvariant guards the sorted-adjacency invariant on
// every generator, including the ones whose construction order is not
// ascending (cycle's wrap-around edge, bounded-degree's random chords)
// and the out-of-order AddEdge path itself.
func TestNeighborsSortedInvariant(t *testing.T) {
	gs := []*Graph{
		Path(17), Cycle(12), Star(9), Clique(7), K2k(5),
		Grid(4, 5), Hypercube(4), RandomTree(33, 3),
		GNP(40, 0.15, 9), RandomGeometric(30, 0, 5),
		RandomBoundedDegree(25, 4, 11), Caterpillar(6, 3), Lollipop(5, 6),
	}
	for _, g := range gs {
		assertSorted(t, g)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
	}
	// Edges inserted in descending/interleaved order through AddEdge.
	g := New(6)
	for _, e := range [][2]int{{5, 0}, {3, 0}, {4, 0}, {1, 0}, {2, 5}, {2, 1}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	assertSorted(t, g)
	if got := g.Neighbors(0); len(got) != 4 || got[0] != 1 || got[1] != 3 || got[2] != 4 || got[3] != 5 {
		t.Fatalf("Neighbors(0) = %v, want [1 3 4 5]", got)
	}
}

// TestCSR checks the compressed-sparse-row mirror against Neighbors and
// its cache invalidation on mutation.
func TestCSR(t *testing.T) {
	g := Grid(3, 4)
	off, adj := g.CSR()
	if len(off) != g.N()+1 || int(off[g.N()]) != 2*g.M() {
		t.Fatalf("CSR shape: len(off)=%d, off[n]=%d, want %d half-edges", len(off), off[g.N()], 2*g.M())
	}
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		row := adj[off[v]:off[v+1]]
		if len(row) != len(nb) {
			t.Fatalf("CSR row %d has %d entries, want %d", v, len(row), len(nb))
		}
		for i, w := range nb {
			if int(row[i]) != w {
				t.Fatalf("CSR row %d = %v, want %v", v, row, nb)
			}
		}
	}
	// Cached: same backing arrays on a second call.
	off2, adj2 := g.CSR()
	if &off2[0] != &off[0] || &adj2[0] != &adj[0] {
		t.Fatal("CSR not cached across calls")
	}
	// Invalidated by mutation.
	if err := g.AddEdge(0, 11); err != nil {
		t.Fatal(err)
	}
	off3, _ := g.CSR()
	if int(off3[g.N()]) != 2*g.M() {
		t.Fatalf("CSR stale after AddEdge: off[n]=%d, want %d", off3[g.N()], 2*g.M())
	}
}

// TestDiameterCached checks that a repeated Diameter is served from the
// cache: same value, and none of the computation's allocations.
func TestDiameterCached(t *testing.T) {
	g := Grid(5, 7)
	d, err := g.Diameter()
	if err != nil || d != 10 {
		t.Fatalf("grid-5x7 diameter = %d, %v", d, err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if d2, err := g.Diameter(); err != nil || d2 != d {
			t.Fatalf("repeated diameter = %d, %v; want %d", d2, err, d)
		}
	})
	if allocs != 0 {
		t.Fatalf("repeated Diameter allocates %v per call; not cached", allocs)
	}
}

// TestDiameterInvalidatedByAddEdge checks that AddEdge drops the cached
// diameter and the cached disconnection error alike.
func TestDiameterInvalidatedByAddEdge(t *testing.T) {
	g := Path(10)
	if d, _ := g.Diameter(); d != 9 {
		t.Fatalf("path-10 diameter = %d, want 9", d)
	}
	if err := g.AddEdge(0, 9); err != nil { // close the path into a cycle
		t.Fatal(err)
	}
	if d, err := g.Diameter(); err != nil || d != 5 {
		t.Fatalf("diameter after chord = %d, %v; want 5", d, err)
	}

	h := New(3)
	if err := h.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Diameter(); err == nil {
		t.Fatal("Diameter on disconnected graph should error")
	}
	if err := h.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if d, err := h.Diameter(); err != nil || d != 2 {
		t.Fatalf("diameter after connecting = %d, %v; want 2", d, err)
	}
}

// TestDiameterConcurrent races first Diameter calls (and CSR, which
// shares the cache mutex) on one graph; run under -race.
func TestDiameterConcurrent(t *testing.T) {
	g := Hypercube(6)
	var wg sync.WaitGroup
	ds := make([]int, 8)
	for i := range ds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.CSR()
			d, err := g.Diameter()
			if err != nil {
				t.Error(err)
			}
			ds[i] = d
		}(i)
	}
	wg.Wait()
	for i, d := range ds {
		if d != 6 {
			t.Fatalf("goroutine %d: hypercube-6 diameter = %d, want 6", i, d)
		}
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := New(3)
	g.adj[0] = append(g.adj[0], 1) // corrupt: half-edge only
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric edge")
	}
}

func TestGraphPropertyHandshake(t *testing.T) {
	// Property: sum of degrees = 2M for random graphs.
	f := func(rawN uint8, rawSeed uint16) bool {
		n := int(rawN)%40 + 2
		g := GNP(n, 0.3, uint64(rawSeed))
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBFSOutOfRangeSource(t *testing.T) {
	g := Path(3)
	dist := g.BFS(-1)
	for _, d := range dist {
		if d != -1 {
			t.Fatal("BFS(-1) should mark everything unreachable")
		}
	}
}

func TestRandomGeometric(t *testing.T) {
	g := RandomGeometric(40, 0.3, 7)
	if g.N() != 40 || !g.IsConnected() {
		t.Fatalf("rgg: n=%d connected=%v", g.N(), g.IsConnected())
	}
	if g.Name() != "rgg-40-0.30" {
		t.Errorf("name = %q", g.Name())
	}
	// Deterministic in the seed.
	h := RandomGeometric(40, 0.3, 7)
	if g.M() != h.M() {
		t.Errorf("same seed, different edge counts: %d vs %d", g.M(), h.M())
	}
	if RandomGeometric(40, 0.3, 8).M() == g.M() && RandomGeometric(40, 0.3, 9).M() == g.M() {
		t.Error("different seeds produced identical edge counts thrice; generator ignores seed?")
	}
	// A tiny radius forces the connectivity fixup.
	sparse := RandomGeometric(30, 0.01, 3)
	if !sparse.IsConnected() {
		t.Error("fixup failed to connect a sub-threshold sample")
	}
	if sparse.M() < 29 {
		t.Errorf("connected graph needs >= n-1 edges, got %d", sparse.M())
	}
	// Default radius (r <= 0) sits above the connectivity threshold.
	if def := RandomGeometric(50, 0, 11); !def.IsConnected() {
		t.Error("default radius sample disconnected")
	}
}
