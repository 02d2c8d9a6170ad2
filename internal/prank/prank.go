// Package prank implements P-Rank (Penetrating Rank, Zhao et al., CIKM
// 2009) with OIP partial-sums sharing.
//
// P-Rank generalizes SimRank by scoring with both in- and out-links:
//
//	s(a,b) = lambda     * C_in /(|I(a)||I(b)|) * sum s(i, j)  over I(a) x I(b)
//	       + (1-lambda) * C_out/(|O(a)||O(b)|) * sum s(i, j)  over O(a) x O(b)
//	s(a,a) = 1; empty-set terms contribute 0.
//
// The paper's Related Work notes that "since the iterative paradigms of
// SimRank and P-Rank are almost similar, our techniques for SimRank can be
// easily extended to P-Rank" — this package is that extension. The in-link
// term reuses the OIP Sweeper over the graph's in-neighbor sets; the
// out-link term reuses it over the transpose graph (whose in-neighbor sets
// are the original out-neighbor sets), each with its own DMST-Reduce plan.
package prank

import (
	"fmt"
	"math"
	"time"

	"oipsr/graph"
	"oipsr/internal/core"
	"oipsr/internal/par"
	"oipsr/internal/partition"
	"oipsr/internal/simmat"
)

// Options configure a P-Rank computation.
type Options struct {
	// CIn and COut are the in-link and out-link damping factors in (0,1).
	// A zero CIn means 0.6 (the SimRank default; Zhao et al. use 0.8); a
	// zero COut means CIn.
	CIn, COut float64

	// Lambda in [0,1] weights the in-link term; 1-Lambda weights the
	// out-link term. Zero value means the balanced 0.5. Lambda = 1
	// recovers SimRank exactly.
	Lambda float64

	// K fixes the iteration count; if zero it is derived from Eps with the
	// contraction factor lambda*CIn + (1-lambda)*COut.
	K int

	// Eps is the accuracy target used when K == 0; defaults to 1e-3.
	Eps float64

	// DisableSharing uses trivial (psum-style) plans for both directions.
	DisableSharing bool

	// Workers sets the sweep worker-pool size for both directional sweeps:
	// 1 means serial, anything below 1 means runtime.GOMAXPROCS(0). Scores
	// and operation counts are bit-identical for every value.
	Workers int
}

func (o *Options) normalize() error {
	if o.CIn == 0 {
		o.CIn = 0.6
	}
	if o.COut == 0 {
		o.COut = o.CIn
	}
	if !(o.CIn > 0 && o.CIn < 1) || !(o.COut > 0 && o.COut < 1) {
		return fmt.Errorf("prank: damping factors (%v, %v) outside (0,1)", o.CIn, o.COut)
	}
	if o.Lambda == 0 {
		o.Lambda = 0.5
	}
	if o.Lambda < 0 || o.Lambda > 1 {
		return fmt.Errorf("prank: lambda %v outside [0,1]", o.Lambda)
	}
	if o.K < 0 {
		return fmt.Errorf("prank: negative iteration count %d", o.K)
	}
	if o.K == 0 {
		if o.Eps == 0 {
			o.Eps = 1e-3
		}
		if !(o.Eps > 0 && o.Eps < 1) {
			return fmt.Errorf("prank: accuracy eps %v outside (0,1)", o.Eps)
		}
		// Contraction factor of the combined operator.
		c := o.Lambda*o.CIn + (1-o.Lambda)*o.COut
		k := int(math.Ceil(math.Log(o.Eps)/math.Log(c) - 1))
		if k < 1 {
			k = 1
		}
		o.K = k
	}
	return nil
}

// Stats reports the combined work of both directional sweeps.
type Stats struct {
	Iterations int
	PlanTime   time.Duration
	SweepTime  time.Duration

	InnerAdds int64
	OuterAdds int64
	AuxBytes  int64

	InShareRatio  float64 // sharing achieved on in-neighbor sets
	OutShareRatio float64 // sharing achieved on out-neighbor sets
}

// Compute runs P-Rank on g and returns the converged scores.
func Compute(g *graph.Graph, opt Options) (*simmat.Matrix, *Stats, error) {
	if err := opt.normalize(); err != nil {
		return nil, nil, err
	}
	st := &Stats{}
	n := g.NumVertices()
	tr := g.Transpose()

	t0 := time.Now()
	var planIn, planOut *partition.Plan
	if opt.DisableSharing {
		planIn, planOut = partition.TrivialPlan(g), partition.TrivialPlan(tr)
	} else {
		var err error
		if planIn, err = partition.BuildPlan(g, partition.Options{}); err != nil {
			return nil, nil, err
		}
		if planOut, err = partition.BuildPlan(tr, partition.Options{}); err != nil {
			return nil, nil, err
		}
	}
	st.PlanTime = time.Since(t0)
	st.InShareRatio = planIn.ShareRatio()
	st.OutShareRatio = planOut.ShareRatio()

	// The blended iterate has real rows at empty in-sets (out-links feed
	// them), so both sweepers keep every vertex: none is outside the
	// block, and the prevDiag argument of Sweep goes unused.
	swIn := core.NewParallelSweeper(g, planIn, true, opt.DisableSharing, opt.Workers)
	swOut := core.NewParallelSweeper(tr, planOut, true, opt.DisableSharing, opt.Workers)
	workers := par.Resolve(opt.Workers)

	prev := simmat.NewIdentity(n)
	next := simmat.New(n)
	tmpIn := simmat.New(n)
	tmpOut := simmat.New(n)

	t1 := time.Now()
	for iter := 0; iter < opt.K; iter++ {
		st.Iterations++
		// A sweep overwrites its input: the out-link sweep reads a copy
		// of prev in next, which the blend below overwrites.
		copy(next.Data(), prev.Data())
		swIn.Sweep(prev, tmpIn, 0, opt.CIn, false)
		swOut.Sweep(next, tmpOut, 0, opt.COut, false)
		nd, id, od := next.Data(), tmpIn.Data(), tmpOut.Data()
		l := opt.Lambda
		// Element-wise blend, so splitting across workers is bit-identical.
		par.Do(workers, func(w int) {
			lo, hi := par.Range(len(nd), workers, w)
			for i := lo; i < hi; i++ {
				nd[i] = l*id[i] + (1-l)*od[i]
			}
		})
		for v := 0; v < n; v++ {
			next.Set(v, v, 1)
		}
		prev, next = next, prev
	}
	st.SweepTime = time.Since(t1)
	in, out := swIn.Stats(), swOut.Stats()
	st.InnerAdds = in.InnerAdds + out.InnerAdds
	st.OuterAdds = in.OuterAdds + out.OuterAdds
	st.AuxBytes = swIn.AuxBytes() + swOut.AuxBytes() + planIn.Bytes() + planOut.Bytes()
	return prev, st, nil
}
