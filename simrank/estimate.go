package simrank

import (
	"fmt"

	"oipsr/internal/numeric"
)

// IterationEstimate bundles the a-priori iteration counts for a given
// damping factor and accuracy, the quantities tabulated in the paper's
// Fig. 6f.
type IterationEstimate struct {
	// Conventional is the geometric-model count (smallest K with
	// C^(K+1) <= eps), used by OIPSR / PsumSR / Naive.
	Conventional int
	// Differential is the exact exponential-model count (smallest K with
	// C^(K+1)/(K+1)! <= eps), used by OIPDSR.
	Differential int
	// Lambert is the closed-form estimate of Corollary 1 (Lambert W).
	Lambert int
	// Log is the Lambert-free estimate of Corollary 2; LogValid reports
	// whether eps is inside its validity range.
	Log      int
	LogValid bool
}

// EstimateIterations computes all iteration estimates for damping factor c
// and accuracy eps.
func EstimateIterations(c, eps float64) (IterationEstimate, error) {
	if !(c > 0 && c < 1) {
		return IterationEstimate{}, fmt.Errorf("simrank: damping factor %v outside (0,1)", c)
	}
	if !(eps > 0 && eps < 1) {
		return IterationEstimate{}, fmt.Errorf("simrank: accuracy eps %v outside (0,1)", eps)
	}
	est := IterationEstimate{
		Conventional: numeric.IterationsConventional(c, eps),
		Differential: numeric.IterationsDifferentialExact(c, eps),
		Lambert:      numeric.IterationsDifferentialLambert(c, eps),
	}
	est.Log, est.LogValid = numeric.IterationsDifferentialLog(c, eps)
	return est, nil
}
