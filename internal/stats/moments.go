package stats

import (
	"fmt"
	"math"
)

// Moments is a mergeable Welford accumulator: count, mean, sum of squared
// deviations (M2), min and max. Unlike Stream it retains no samples, so
// it serializes to a constant-size record — the unit of state the
// adaptive experiment controller journals per (cell, batch) — and two
// accumulators combine with Merge using Chan et al.'s parallel update.
//
// Determinism contract: Add and Merge are pure float64 arithmetic, so
// feeding the same values in the same order — or merging the same
// sub-accumulators in the same order — yields bit-identical state on any
// machine. Merging is NOT bitwise-associative (floating point), which is
// why callers that need reproducible aggregates must fix the merge order
// (internal/experiment merges batch moments in batch-index order).
type Moments struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Add feeds one observation (Welford's running update).
func (m *Moments) Add(x float64) {
	if m.N == 0 {
		m.Min, m.Max = x, x
	} else {
		if x < m.Min {
			m.Min = x
		}
		if x > m.Max {
			m.Max = x
		}
	}
	m.N++
	d := x - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (x - m.Mean)
}

// Merge folds o into m (Chan et al. parallel combination). The result is
// the moments of the concatenated sample; merge order affects the exact
// float64 bits, so fix it when reproducibility matters.
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = o
		return
	}
	n := m.N + o.N
	d := o.Mean - m.Mean
	m.M2 += o.M2 + d*d*float64(m.N)*float64(o.N)/float64(n)
	m.Mean += d * float64(o.N) / float64(n)
	m.N = n
	if o.Min < m.Min {
		m.Min = o.Min
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
}

// Variance returns the unbiased sample variance (0 for fewer than two
// observations). Welford's M2 is non-negative up to rounding; tiny
// negative residue is clamped.
func (m *Moments) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	v := m.M2 / float64(m.N-1)
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// StdErr returns the standard error of the mean (0 for fewer than two
// observations).
func (m *Moments) StdErr() float64 {
	if m.N < 2 {
		return 0
	}
	return m.StdDev() / math.Sqrt(float64(m.N))
}

// Interval returns the half-width crit·StdErr of the confidence
// interval for the mean with critical value crit (TQuantile(N-1, c) for
// the two-sided Student-t interval at confidence c), and that
// half-width relative to |mean|, the precision the adaptive stopping
// rule targets. Both are 0 for fewer than two observations or no
// spread (exactly resolved); a zero mean with a nonzero half-width is
// +Inf relative (never converged). Both results are monotone in crit,
// so a relative width from a lower bound on crit (TQuantileFloor) that
// exceeds a target proves the exact one does too.
func (m *Moments) Interval(crit float64) (hw, rel float64) {
	hw = crit * m.StdErr()
	if hw == 0 {
		return 0, 0
	}
	mean := math.Abs(m.Mean)
	if mean == 0 {
		return hw, math.Inf(1)
	}
	return hw, hw / mean
}

// validateMoments rejects states no Add/Merge sequence can produce —
// the journal-replay guard against a corrupted-but-CRC-valid record
// (CRC protects against torn writes, not against a buggy writer).
func validateMoments(m Moments) error {
	switch {
	case m.N < 0:
		return fmt.Errorf("stats: negative count %d", m.N)
	case m.N == 0 && (m.Mean != 0 || m.M2 != 0 || m.Min != 0 || m.Max != 0):
		return fmt.Errorf("stats: empty moments with nonzero fields")
	case m.M2 < 0 || math.IsNaN(m.M2) || math.IsInf(m.M2, 0):
		return fmt.Errorf("stats: bad M2 %v", m.M2)
	case math.IsNaN(m.Mean) || math.IsInf(m.Mean, 0):
		return fmt.Errorf("stats: bad mean %v", m.Mean)
	case m.N > 0 && (m.Min > m.Max || m.Mean < m.Min || m.Mean > m.Max):
		return fmt.Errorf("stats: inconsistent min/mean/max %v/%v/%v", m.Min, m.Mean, m.Max)
	}
	return nil
}

// Validate reports whether the state is one an Add/Merge sequence could
// have produced. Used when deserializing journaled moments.
func (m *Moments) Validate() error { return validateMoments(*m) }

// TQuantile returns the two-sided Student-t critical value t such that a
// t-distributed variable with df degrees of freedom lies in [-t, t] with
// the given probability (e.g. df=9, confidence=0.95 -> 2.262...). It is
// a pure deterministic function; df < 1 is treated as 1 and confidence
// is clamped to (0, 1).
//
// A call costs tens of microseconds (a bisection of a continued
// fraction), so callers on a hot path memoize it per df and decide what
// they can from TQuantileFloor first.
func TQuantile(df int64, confidence float64) float64 {
	if df < 1 {
		df = 1
	}
	if confidence <= 0 {
		confidence = 1e-9
	}
	if confidence >= 1 {
		confidence = 1 - 1e-12
	}
	// One-sided upper-tail probability.
	p := (1 + confidence) / 2
	// Invert the t CDF by bisection on the regularized incomplete beta
	// representation: P(T <= t) = 1 - I_{df/(df+t^2)}(df/2, 1/2) / 2 for
	// t >= 0. Bisection is branch-predictable and immune to the
	// divergence corner cases of series inversions.
	cdf := func(t float64) float64 {
		x := float64(df) / (float64(df) + t*t)
		return 1 - 0.5*regIncBeta(float64(df)/2, 0.5, x)
	}
	lo, hi := 0.0, 1.0
	for cdf(hi) < p {
		hi *= 2
		if hi > 1e18 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// floorMaxDF bounds the degrees of freedom at which TQuantileFloor was
// checked against TQuantile as computed. Past about 1e8 df TQuantile's
// incomplete-beta evaluation loses digits and falls below the normal
// quantile (by 87% near df 7e14); outside confidence [0.5, 0.9999] it
// does so sooner (by 6% at confidence 1e-4 near df 1.6e7).
const floorMaxDF = 1 << 24

// TQuantileFloor returns a lower bound on TQuantile(df, confidence) that
// costs one Erfinv instead of a bisection: the two-sided normal critical
// value √2·erfinv(confidence), which the Student-t critical value
// exceeds at every df, shaded down by a relative 1e-6 for TQuantile's
// own rounding (at most 4e-9 in the checked range). Outside that range,
// df up to floorMaxDF and confidence in [0.5, 0.9999], it returns the
// trivial bound 0.
func TQuantileFloor(df int64, confidence float64) float64 {
	if df > floorMaxDF || confidence < 0.5 || confidence > 0.9999 {
		return 0
	}
	return math.Sqrt2 * math.Erfinv(confidence) * (1 - 1e-6)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// via the standard continued-fraction expansion (Lentz's algorithm),
// with the symmetry transform applied when x is past the distribution's
// bulk so the fraction converges quickly.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete-beta continued fraction by the
// modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		tiny    = 1e-300
		epsilon = 1e-15
		maxIter = 500
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsilon {
			break
		}
	}
	return h
}
