package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMeanMaxPercentile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Mean(xs) != 2.8 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Max(xs) != 5 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Percentile(xs, 50) != 3 {
		t.Errorf("P50 = %v", Percentile(xs, 50))
	}
	if Percentile(xs, 100) != 5 || Percentile(xs, 0) != 1 {
		t.Error("extreme percentiles wrong")
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Error("empty inputs mishandled")
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = x^2 exactly.
	xs := []float64{1, 2, 4, 8, 16}
	ys := []float64{1, 4, 16, 64, 256}
	if got := LogLogSlope(xs, ys); math.Abs(got-2) > 1e-9 {
		t.Errorf("slope of x^2 = %v", got)
	}
	// y = const: slope 0.
	flat := []float64{7, 7, 7, 7, 7}
	if got := LogLogSlope(xs, flat); math.Abs(got) > 1e-9 {
		t.Errorf("slope of constant = %v", got)
	}
	// Logarithmic growth has slope well below 1.
	logy := make([]float64, len(xs))
	for i, x := range xs {
		logy[i] = math.Log2(x) + 1
	}
	if got := LogLogSlope(xs, logy); got > 0.9 {
		t.Errorf("slope of log = %v, want << 1", got)
	}
	if !math.IsNaN(LogLogSlope([]float64{1}, []float64{1})) {
		t.Error("single point should be NaN")
	}
	if !math.IsNaN(LogLogSlope([]float64{0, -1}, []float64{1, 2})) {
		t.Error("non-positive xs should be skipped -> NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"name", "n", "value"}}
	tbl.Add("alpha", 16, 3.14159)
	tbl.Add("beta-long-name", 256, 2.0)
	s := tbl.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "beta-long-name") {
		t.Fatalf("table missing rows:\n%s", s)
	}
	if !strings.Contains(s, "3.14") {
		t.Errorf("float not formatted:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("table has %d lines:\n%s", len(lines), s)
	}
}
