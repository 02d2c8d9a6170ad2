// Package numeric implements the scalar analysis used by the differential
// SimRank model of Section IV: the Lambert W function, the iteration-count
// estimators of Corollaries 1 and 2, and the error tail bounds of the
// geometric (conventional) and exponential (differential) SimRank series.
package numeric

import (
	"fmt"
	"math"
)

// branchPoint is -1/e, the left end of the domain of the principal branch.
const branchPoint = -0.36787944117144233

// LambertW0 evaluates the principal branch W0 of the Lambert W function,
// the inverse of w -> w*e^w on [-1/e, +inf). It returns NaN for x < -1/e.
//
// The implementation uses a domain-split initial guess followed by Halley
// iteration, which converges to machine precision in <= 6 steps across the
// domain.
func LambertW0(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case x < branchPoint:
		return math.NaN()
	case x == 0:
		return 0
	case math.IsInf(x, 1):
		return math.Inf(1)
	}

	// Each float64(...) is the Go spec's explicit rounding: it forbids
	// fusing that product into a multiply-add, so arm64 rounds as amd64.
	var w float64
	switch {
	case x < -0.3578794: // near the branch point: series in sqrt(2(ex+1))
		p := math.Sqrt(2 * (float64(math.E*x) + 1))
		w = -1 + p - float64(p*p)/3 + float64(11.0/72.0*p*p*p)
	case x < math.E:
		// Moderate arguments: a rational seed then Halley handles it.
		w = x / (1 + x) * (1 + float64(math.Log1p(x)/2))
		if x > 0.5 {
			w = math.Log1p(x) * (1 - math.Log(1+math.Log1p(x))/(2+math.Log1p(x)))
		}
	default:
		// Large x: the classic asymptotic ln x - ln ln x.
		l1 := math.Log(x)
		l2 := math.Log(l1)
		w = l1 - l2 + l2/l1
	}

	for i := 0; i < 40; i++ {
		ew := math.Exp(w)
		f := float64(w*ew) - x
		// Halley's method: quadratic correction of Newton.
		denom := float64(ew*(w+1)) - (w+2)*f/(2*w+2)
		dw := f / denom
		w -= dw
		if math.Abs(dw) <= 1e-15*(1+math.Abs(w)) {
			break
		}
	}
	return w
}

// Factorial returns k! as a float64. It overflows to +Inf for k > 170,
// matching IEEE behaviour, which is harmless for tail-bound comparisons.
func Factorial(k int) float64 {
	if k < 0 {
		panic(fmt.Sprintf("numeric: Factorial(%d) undefined", k))
	}
	f := 1.0
	for i := 2; i <= k; i++ {
		f *= float64(i)
	}
	return f
}

// GeometricTailBound returns the conventional SimRank error bound after k
// iterations, |s_k - s| <= C^(k+1) (Lizorkin et al., cited as the accuracy
// guarantee the paper's K = ceil(log_C eps) derives from).
func GeometricTailBound(c float64, k int) float64 {
	return math.Pow(c, float64(k+1))
}

// ExponentialTailBound returns the differential SimRank error bound after k
// iterations, |S^_k - S^|_max <= C^(k+1)/(k+1)! (Proposition 7).
func ExponentialTailBound(c float64, k int) float64 {
	if k+1 > 170 {
		return 0 // (k+1)! overflows float64; the bound is far below ulp(1).
	}
	return math.Pow(c, float64(k+1)) / Factorial(k+1)
}
