package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := SplitMix64(42)
	b := SplitMix64(42)
	if a != b {
		t.Fatalf("SplitMix64 not deterministic: %d != %d", a, b)
	}
	if SplitMix64(42) == SplitMix64(43) {
		t.Fatal("SplitMix64(42) == SplitMix64(43): unexpected collision")
	}
}

func TestChildStreamsDiffer(t *testing.T) {
	seen := make(map[uint64]uint64, 1000)
	for i := uint64(0); i < 1000; i++ {
		c := Child(7, i)
		if prev, ok := seen[c]; ok {
			t.Fatalf("Child(7,%d) collides with Child(7,%d)", i, prev)
		}
		seen[c] = i
	}
}

func TestNewDeterministic(t *testing.T) {
	r1 := New(99)
	r2 := New(99)
	for i := 0; i < 100; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("New(99) streams diverge at step %d", i)
		}
	}
}

func TestNewChildMatchesChild(t *testing.T) {
	a := NewChild(5, 3)
	b := New(Child(5, 3))
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("NewChild(5,3) != New(Child(5,3))")
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if Bernoulli(r, 0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !Bernoulli(r, 1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if Bernoulli(r, -0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !Bernoulli(r, 1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(2)
	const trials = 200000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if Bernoulli(r, p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v): empirical mean %v", p, got)
		}
	}
}

func TestBernoulliPow2(t *testing.T) {
	r := New(3)
	if !BernoulliPow2(r, 0) {
		t.Fatal("BernoulliPow2(0) must always be true")
	}
	if !BernoulliPow2(r, -1) {
		t.Fatal("BernoulliPow2(-1) must always be true")
	}
	const trials = 1 << 18
	for _, k := range []int{1, 2, 5} {
		hits := 0
		for i := 0; i < trials; i++ {
			if BernoulliPow2(r, k) {
				hits++
			}
		}
		want := math.Pow(2, -float64(k))
		got := float64(hits) / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("BernoulliPow2(%d): got mean %v, want %v", k, got, want)
		}
	}
	// Very large k should be effectively never (and must not hang).
	for i := 0; i < 1000; i++ {
		if BernoulliPow2(r, 200) {
			t.Fatal("BernoulliPow2(200) returned true (p = 2^-200)")
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(5)
	const trials = 100000
	for _, lambda := range []float64{1, 4} {
		sum := 0.0
		for i := 0; i < trials; i++ {
			x := Exponential(r, lambda)
			if x < 0 {
				t.Fatalf("Exponential(%v) returned negative %v", lambda, x)
			}
			sum += x
		}
		got := sum / trials
		want := 1 / lambda
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("Exponential(%v): empirical mean %v, want %v", lambda, got, want)
		}
	}
}

func TestExponentialPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(r, 0) did not panic")
		}
	}()
	Exponential(New(1), 0)
}

func TestBlockingTimeDistribution(t *testing.T) {
	r := New(6)
	const n = 64
	const trials = 200000
	counts := make(map[int]int)
	for i := 0; i < trials; i++ {
		b := BlockingTime(r, n)
		counts[b]++
	}
	// Support must be {2, 4, 8, 16, 32, 64}: powers of two 2^1..2^(log n -1)
	// plus n itself.
	for b := range counts {
		if b != n && (b&(b-1) != 0 || b < 2 || b >= n) {
			t.Fatalf("BlockingTime produced unexpected value %d", b)
		}
	}
	// P[B = 2^b] = 2^-b for b in [1, log2 n), P[B = n] = remaining mass.
	for b := 1; b < 6; b++ {
		want := math.Pow(2, -float64(b))
		got := float64(counts[1<<uint(b)]) / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P[B=%d] = %v, want %v", 1<<uint(b), got, want)
		}
	}
	wantN := math.Pow(2, -5) // mass not claimed by b = 1..5
	gotN := float64(counts[n]) / trials
	if math.Abs(gotN-wantN) > 0.01 {
		t.Errorf("P[B=n] = %v, want %v", gotN, wantN)
	}
}

func TestBlockingTimeSmallN(t *testing.T) {
	r := New(7)
	if got := BlockingTime(r, 1); got != 1 {
		t.Errorf("BlockingTime(1) = %d, want 1", got)
	}
	for i := 0; i < 100; i++ {
		if got := BlockingTime(r, 2); got != 2 {
			t.Errorf("BlockingTime(2) = %d, want 2", got)
		}
	}
}

func TestLog2Helpers(t *testing.T) {
	cases := []struct {
		x        int
		ceil     int
		nextPow2 int
	}{
		{1, 0, 1},
		{2, 1, 2},
		{3, 2, 4},
		{4, 2, 4},
		{5, 3, 8},
		{8, 3, 8},
		{9, 4, 16},
		{1024, 10, 1024},
		{1025, 11, 2048},
	}
	for _, c := range cases {
		if got := Log2Ceil(c.x); got != c.ceil {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.x, got, c.ceil)
		}
		if got := NextPow2(c.x); got != c.nextPow2 {
			t.Errorf("NextPow2(%d) = %d, want %d", c.x, got, c.nextPow2)
		}
	}
	if Log2Ceil(0) != 0 || NextPow2(0) != 1 {
		t.Error("log2 helpers mishandle x <= 1")
	}
}

func TestLog2Property(t *testing.T) {
	// Log2Ceil(x) is the least c with 2^c >= x.
	f := func(raw uint16) bool {
		x := int(raw)%100000 + 1
		c := Log2Ceil(x)
		return 1<<uint(c) >= x && (c == 0 || 1<<uint(c-1) < x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
