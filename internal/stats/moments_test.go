package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestMomentsMatchesDirect(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	if m.N != int64(len(xs)) {
		t.Fatalf("count %d, want %d", m.N, len(xs))
	}
	mean := Mean(xs)
	if math.Abs(m.Mean-mean) > 1e-12 {
		t.Errorf("mean %v, want %v", m.Mean, mean)
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	wantVar := ss / float64(len(xs)-1)
	if math.Abs(m.Variance()-wantVar) > 1e-12 {
		t.Errorf("variance %v, want %v", m.Variance(), wantVar)
	}
	if m.Min != 1 || m.Max != 9 {
		t.Errorf("min/max %v/%v, want 1/9", m.Min, m.Max)
	}
}

func TestMomentsMergeEqualsSequential(t *testing.T) {
	// Merging fixed-boundary batches in batch order must be deterministic:
	// the exact same split merged twice yields bit-identical state.
	xs := make([]float64, 1000)
	s := uint64(42)
	for i := range xs {
		s = s*6364136223846793005 + 1442695040888963407
		xs[i] = float64(s>>11) / float64(1<<53) * 100
	}
	build := func() Moments {
		var total Moments
		for lo := 0; lo < len(xs); lo += 128 {
			hi := lo + 128
			if hi > len(xs) {
				hi = len(xs)
			}
			var batch Moments
			for _, x := range xs[lo:hi] {
				batch.Add(x)
			}
			total.Merge(batch)
		}
		return total
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("same merge order diverged: %+v vs %+v", a, b)
	}
	// And the merged result agrees with sequential accumulation to
	// floating-point accuracy (not bit-exactness — merge reassociates).
	var seq Moments
	for _, x := range xs {
		seq.Add(x)
	}
	if a.N != seq.N || a.Min != seq.Min || a.Max != seq.Max {
		t.Fatalf("merge count/min/max diverged: %+v vs %+v", a, seq)
	}
	if math.Abs(a.Mean-seq.Mean) > 1e-9 || math.Abs(a.Variance()-seq.Variance()) > 1e-6 {
		t.Fatalf("merge moments drifted: %+v vs %+v", a, seq)
	}
}

func TestMomentsMergeEmpty(t *testing.T) {
	var a, b Moments
	b.Add(7)
	a.Merge(b) // empty <- nonempty adopts
	if a != b {
		t.Fatalf("empty merge: %+v vs %+v", a, b)
	}
	a.Merge(Moments{}) // nonempty <- empty is a no-op
	if a != b {
		t.Fatalf("no-op merge changed state: %+v", a)
	}
}

func TestMomentsJSONRoundTripExact(t *testing.T) {
	// The checkpoint journal stores moments as JSON; float64 round-trip
	// must be bit-exact for resume to reproduce aggregates.
	var m Moments
	for _, x := range []float64{1.0 / 3, math.Pi, 2.7182818284590455, 1e-300, 12345.6789} {
		m.Add(x)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Moments
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if m != back {
		t.Fatalf("JSON round trip not bit-exact: %+v vs %+v", m, back)
	}
}

func TestMomentsValidate(t *testing.T) {
	var ok Moments
	ok.Add(1)
	ok.Add(2)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid moments rejected: %v", err)
	}
	bad := []Moments{
		{N: -1},
		{N: 0, Mean: 1},
		{N: 2, Mean: 1, M2: -5, Min: 0, Max: 2},
		{N: 2, Mean: math.NaN(), Min: 0, Max: 1},
		{N: 2, Mean: 5, Min: 0, Max: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid moments %+v accepted", i, m)
		}
	}
}

func TestTQuantileReferenceValues(t *testing.T) {
	// Standard two-sided critical values (tables to 3 decimals).
	cases := []struct {
		df   int64
		conf float64
		want float64
	}{
		{1, 0.95, 12.706},
		{2, 0.95, 4.303},
		{5, 0.95, 2.571},
		{9, 0.95, 2.262},
		{10, 0.99, 3.169},
		{30, 0.95, 2.042},
		{100, 0.95, 1.984},
		{1000, 0.95, 1.962},
		{60, 0.90, 1.671},
	}
	for _, tc := range cases {
		got := TQuantile(tc.df, tc.conf)
		if math.Abs(got-tc.want) > 2e-3 {
			t.Errorf("TQuantile(%d, %v) = %v, want %v", tc.df, tc.conf, got, tc.want)
		}
	}
}

func TestTQuantileLargeDfApproachesNormal(t *testing.T) {
	got := TQuantile(1_000_000, 0.95)
	if math.Abs(got-1.95996) > 1e-3 {
		t.Errorf("t(1e6, 0.95) = %v, want ~1.960", got)
	}
}

func TestCIHalfWidthShrinks(t *testing.T) {
	// Same-spread samples: CI half-width must shrink roughly as 1/sqrt(n).
	widths := make([]float64, 0, 3)
	for _, n := range []int{100, 400, 1600} {
		var m Moments
		for i := 0; i < n; i++ {
			m.Add(float64(i % 10))
		}
		hw, _ := m.Interval(TQuantile(m.N-1, 0.95))
		widths = append(widths, hw)
	}
	if !(widths[0] > widths[1] && widths[1] > widths[2]) {
		t.Fatalf("CI half-widths not shrinking: %v", widths)
	}
	ratio := widths[0] / widths[2]
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("16x samples should ~4x the precision, got ratio %v", ratio)
	}
}

func TestRelCIHalfWidth(t *testing.T) {
	var m Moments
	m.Add(5)
	m.Add(5)
	m.Add(5)
	if hw, rel := m.Interval(TQuantile(m.N-1, 0.95)); hw != 0 || rel != 0 {
		t.Errorf("constant stream CI = %v, relCI = %v, want 0, 0", hw, rel)
	}
	var z Moments
	z.Add(-1)
	z.Add(1)
	if _, rel := z.Interval(TQuantile(z.N-1, 0.95)); !math.IsInf(rel, 1) {
		t.Errorf("zero-mean spread relCI = %v, want +Inf", rel)
	}
	var one Moments
	one.Add(3)
	if hw, rel := one.Interval(TQuantile(one.N-1, 0.95)); hw != 0 || rel != 0 {
		t.Errorf("one observation: CI = %v, relCI = %v, want 0, 0", hw, rel)
	}
}

// TQuantileFloor lies below TQuantile as computed wherever it is not the
// trivial 0: df sampled over 1..10^6 and up to 2^24, at the usual
// confidences and the ends of its range, and at df far past 2^24, where
// TQuantile is its series. Outside the confidence range it is 0.
func TestTQuantileFloorBelowTQuantile(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dfs := []int64{1, 2, 3, 10, 39, 40, 99, 1000, 400_000, 1_000_000, 1 << 24}
	for range 200 {
		dfs = append(dfs, 1+r.Int63n(1_000_000))
	}
	for range 10 {
		dfs = append(dfs, 1_000_000+r.Int63n(1<<24-1_000_000))
	}
	confs := []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}
	for _, conf := range confs {
		if TQuantileFloor(1, conf) <= 0 {
			t.Fatalf("TQuantileFloor(1, %v) = %v, want a positive bound", conf, TQuantileFloor(1, conf))
		}
		for _, df := range dfs {
			if lo, q := TQuantileFloor(df, conf), TQuantile(df, conf); !(lo < q) {
				t.Errorf("TQuantileFloor(%d, %v) = %v, not below TQuantile = %v", df, conf, lo, q)
			}
		}
	}
	for _, df := range []int64{1<<24 + 1, 742_816_916_908_308, math.MaxInt64} {
		if lo, q := TQuantileFloor(df, 0.95), TQuantile(df, 0.95); !(lo > 0 && lo < q) {
			t.Errorf("df %d: TQuantileFloor = %v, TQuantile = %v; want 0 < floor < TQuantile", df, lo, q)
		}
	}
	for _, conf := range []float64{1e-4, 0.4999, 0.99991, 1 - 1e-12} {
		if lo := TQuantileFloor(10, conf); lo != 0 {
			t.Errorf("TQuantileFloor(10, %v) = %v outside the checked range, want 0", conf, lo)
		}
	}
}

// TQuantile never falls below the normal critical value √2·erfinv(conf),
// which every Student-t critical value exceeds, at log-spaced df up to
// 1e15. The bisection alone fell below it from about df 1e8.
func TestTQuantileAboveNormal(t *testing.T) {
	for _, conf := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		z := math.Sqrt2 * math.Erfinv(conf)
		for k := 0; k <= 60; k++ {
			df := int64(math.Round(math.Pow(10, float64(k)/4)))
			if q := TQuantile(df, conf); !(q >= z) {
				t.Errorf("TQuantile(%d, %v) = %v, below the normal value %v", df, conf, q, z)
			}
		}
	}
}

// Up to df 2^18, where it switches to the series, TQuantile is the
// bisection, pinned here bit for bit: an adaptive run capped below that
// computes these critical values, and its report and journal bytes
// depend on them.
func TestTQuantileBisectionUnchanged(t *testing.T) {
	cases := []struct {
		df   int64
		conf float64
		bits uint64
	}{
		{1, 0.5, 0x3feffffffffffffc},
		{39, 0.5, 0x3fe5c9615b8fe7c4},
		{1000, 0.5, 0x3fe5976e332e6196},
		{13999, 0.5, 0x3fe59590484c9ae2},
		{199999, 0.5, 0x3fe5956e19d74442},
		{262144, 0.5, 0x3fe5956d7dd08b58},
		{1, 0.95, 0x40296993aacc4d10},
		{39, 0.95, 0x40002e7893bbcad4},
		{1000, 0.95, 0x3fff65bda9fcfb60},
		{13999, 0.95, 0x3fff5cb4e6e2974c},
		{199999, 0.95, 0x3fff5c0fa1fda258},
		{262144, 0.95, 0x3fff5c0caf2392c4},
		{1, 0.999, 0x4083e4f438b2cde2},
		{39, 0.999, 0x400c7707a9448504},
		{1000, 0.999, 0x400a66fa96d44aca},
		{13999, 0.999, 0x400a546c25206a7e},
		{199999, 0.999, 0x400a53192f75e890},
		{262144, 0.999, 0x400a5313237e441e},
	}
	for _, c := range cases {
		if got := TQuantile(c.df, c.conf); math.Float64bits(got) != c.bits {
			t.Errorf("TQuantile(%d, %v) = %v (%#016x), want %v", c.df, c.conf, got,
				math.Float64bits(got), math.Float64frombits(c.bits))
		}
	}
}

// The series and the bisection agree closely where TQuantile switches
// from one to the other.
func TestTQuantileSeriesMatchesBisection(t *testing.T) {
	for _, conf := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999} {
		for _, df := range []int64{100_000, seriesMinDF} {
			b, s := TQuantile(df, conf), tQuantileSeries(df, conf)
			if rel := math.Abs(s-b) / b; rel > 1e-9 {
				t.Errorf("df %d conf %v: series %v, bisection %v (relative %.2g)", df, conf, s, b, rel)
			}
		}
		if got, want := TQuantile(seriesMinDF+1, conf), tQuantileSeries(seriesMinDF+1, conf); got != want {
			t.Errorf("TQuantile(%d, %v) = %v, want the series %v", seriesMinDF+1, conf, got, want)
		}
	}
}

// Interval is monotone in its critical value: the relative width from a
// smaller critical value is never larger, which is what makes the
// bound-first stop rule's "off target" exact.
func TestIntervalMonotoneInCrit(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		m := randMoments(r, 1+r.Intn(50))
		lo := r.Float64() * 3
		hi := lo * (1 + r.Float64()*1e-5)
		hwLo, relLo := m.Interval(lo)
		hwHi, relHi := m.Interval(hi)
		if hwLo > hwHi || relLo > relHi {
			t.Fatalf("Interval(%v) = (%v, %v) exceeds Interval(%v) = (%v, %v) for %+v",
				lo, hwLo, relLo, hi, hwHi, relHi, m)
		}
	}
}

// randMoments builds a reachable Moments state by feeding real samples.
func randMoments(r *rand.Rand, n int) Moments {
	var m Moments
	for i := 0; i < n; i++ {
		// Mix magnitudes and signs, including exact zeros and negative
		// values, so min/mean/max exercise their orderings.
		x := (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(7)-3))
		if r.Intn(10) == 0 {
			x = 0
		}
		m.Add(x)
	}
	return m
}

// approxEq compares float64s to a relative tolerance — merge order
// perturbs low-order bits (floating point is not associative), which is
// exactly why the controller fixes the merge order; the algebraic
// identity still has to hold to near-machine precision.
func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

func momentsApproxEq(a, b Moments) bool {
	// Count, min and max are exact under any merge order; mean and M2
	// accumulate rounding.
	return a.N == b.N && a.Min == b.Min && a.Max == b.Max &&
		approxEq(a.Mean, b.Mean) && approxEq(a.M2, b.M2)
}

// TestMergeCommutativeAssociative is the property batch records depend
// on: any tree of merges over the same batches yields the same moments
// (up to float rounding), so a coordinator merging worker results in
// batch order reproduces what any other grouping would have measured.
func TestMergeCommutativeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 200; trial++ {
		a := randMoments(r, 1+r.Intn(50))
		b := randMoments(r, r.Intn(50)) // may be empty
		c := randMoments(r, 1+r.Intn(50))

		ab := a
		ab.Merge(b)
		ba := b
		ba.Merge(a)
		if !momentsApproxEq(ab, ba) {
			t.Fatalf("trial %d: merge not commutative: %+v vs %+v", trial, ab, ba)
		}

		abc1 := ab
		abc1.Merge(c)
		bc := b
		bc.Merge(c)
		abc2 := a
		abc2.Merge(bc)
		if !momentsApproxEq(abc1, abc2) {
			t.Fatalf("trial %d: merge not associative: %+v vs %+v", trial, abc1, abc2)
		}

		// The merged state must agree with feeding every sample into one
		// accumulator: counts and extremes exactly.
		if abc1.N != a.N+b.N+c.N {
			t.Fatalf("trial %d: merged count %d, want %d", trial, abc1.N, a.N+b.N+c.N)
		}
	}
}

// TestMergeRoundTripStable pins the journal and fabric invariant end to
// end: a batch record carries its moments as JSON, and a merge of the
// decoded states is bit-identical to a merge of the originals.
func TestMergeRoundTripStable(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		a, b := randMoments(r, 1+r.Intn(100)), randMoments(r, 1+r.Intn(100))
		direct := a
		direct.Merge(b)

		raw, err := json.Marshal([]Moments{a, b})
		if err != nil {
			t.Fatal(err)
		}
		var decoded []Moments
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatal(err)
		}
		viaJSON := decoded[0]
		viaJSON.Merge(decoded[1])
		if direct != viaJSON {
			t.Fatalf("trial %d: JSON round trip perturbed merge: %+v vs %+v", trial, direct, viaJSON)
		}
	}
}
