// Package dsr implements the paper's second contribution (Section IV): the
// differential SimRank model defined by the matrix ODE of Definition 2,
//
//	dS^(t)/dt = Q S^(t) Q^T,  S^(0) = e^-C I_n,  S^ := S^(C),
//
// whose exact solution is the exponential series of Eq. 13. Instead of the
// Euler method (whose step size is hard to pick), the engine runs the
// paper's iteration Eq. 15:
//
//	T_{k+1} = Q T_k Q^T
//	S^_{k+1} = S^_k + e^-C * C^(k+1)/(k+1)! * T_{k+1}
//
// with T_0 = I and S^_0 = e^-C I. The error after k steps is bounded by
// C^(k+1)/(k+1)! (Proposition 7), so for accuracy eps the engine runs the
// exact iteration count of numeric.IterationsDifferentialExact — an
// exponential improvement over the conventional model's geometric rate.
//
// The T recurrence has exactly the shape of Eq. 2 without the damping
// factor, so the OIP machinery of Section III applies unchanged: this engine
// drives the same partial-sums-sharing Sweeper as OIP-SR (the combination
// the paper calls OIP-DSR).
package dsr

import (
	"fmt"
	"math"
	"time"

	"oipsr/graph"
	"oipsr/internal/core"
	"oipsr/internal/numeric"
	"oipsr/internal/par"
	"oipsr/internal/partition"
	"oipsr/internal/simmat"
)

// Options configure an OIP-DSR computation.
type Options struct {
	// C is the damping factor in (0,1). Defaults to 0.6.
	C float64

	// K is the number of iterations of Eq. 15. If zero it is derived from
	// Eps via Proposition 7 (smallest k with C^(k+1)/(k+1)! <= Eps).
	K int

	// Eps is the desired accuracy used when K == 0; defaults to 1e-3.
	Eps float64

	// DisableSharing computes T_{k+1} with plain psum-style partial sums
	// instead of OIP sharing (the paper's "DSR without OIP" configuration,
	// used to isolate the convergence-rate gain from the sharing gain).
	DisableSharing bool

	// Workers sets the sweep worker-pool size: 1 means serial, anything
	// below 1 means runtime.GOMAXPROCS(0). Scores and operation counts are
	// bit-identical for every value (see the core package comment).
	Workers int

	// Tile selects the tiled score-matrix backend when Tile.BlockSize > 0
	// (ComputeTiled only; Compute ignores it).
	Tile simmat.TileOptions
}

func (o *Options) normalize() error {
	if o.C == 0 {
		o.C = 0.6
	}
	if !(o.C > 0 && o.C < 1) {
		return fmt.Errorf("dsr: damping factor %v outside (0,1)", o.C)
	}
	if o.K < 0 {
		return fmt.Errorf("dsr: negative iteration count %d", o.K)
	}
	if o.K == 0 {
		if o.Eps == 0 {
			o.Eps = 1e-3
		}
		if !(o.Eps > 0 && o.Eps < 1) {
			return fmt.Errorf("dsr: accuracy eps %v outside (0,1)", o.Eps)
		}
		o.K = numeric.IterationsDifferentialExact(o.C, o.Eps)
	}
	return nil
}

// Stats mirrors core.Stats for the differential engine.
type Stats struct {
	Iterations int
	PlanTime   time.Duration
	SweepTime  time.Duration

	InnerAdds  int64
	OuterAdds  int64
	AuxBytes   int64 // plan + sweep buffers (the paper's "intermediate memory")
	StateBytes int64 // m^2 state: accumulator plus the two auxiliary T_k blocks (m = vertices with a non-empty in-set)

	NumSets          int
	PlanAdditions    int
	ScratchAdditions int
	ShareRatio       float64
	AvgDiff          float64

	// Tile reports the tile store's accounting (ComputeTiled only).
	Tile simmat.TileMetrics
}

// Compute runs the differential SimRank iteration Eq. 15 and returns S^_K
// with run statistics. Only the vertices with a non-empty in-set own rows
// of the iterates (see the core package comment): outside them T_0 has
// diagonal 1, every later T_k is zero, and S^ keeps e^-C on the diagonal,
// the value the result is expanded with.
func Compute(g *graph.Graph, opt Options) (*simmat.Expanded, *Stats, error) {
	if err := opt.normalize(); err != nil {
		return nil, nil, err
	}
	st := &Stats{}

	t0 := time.Now()
	var plan *partition.Plan
	if opt.DisableSharing {
		plan = partition.TrivialPlan(g)
	} else {
		var err error
		plan, err = partition.BuildPlan(g, partition.Options{})
		if err != nil {
			return nil, nil, err
		}
	}
	st.PlanTime = time.Since(t0)
	st.NumSets = plan.NumSets
	st.PlanAdditions = plan.Additions
	st.ScratchAdditions = plan.ScratchAdditions
	st.ShareRatio = plan.ShareRatio()
	st.AvgDiff = plan.AvgDiff

	expC := math.Exp(-opt.C)
	sw := core.NewParallelSweeper(g, plan, false, opt.DisableSharing, opt.Workers)
	workers := sw.Workers()
	m := sw.Kept()

	// S^_0 = e^-C I; T_0 = I.
	acc := simmat.New(m)
	for i := 0; i < m; i++ {
		acc.Set(i, i, expC)
	}
	tPrev := simmat.NewIdentity(m)
	tNext := simmat.New(m)

	t1 := time.Now()
	coeff := expC
	for k := 0; k < opt.K; k++ {
		// T_{k+1} = Q T_k Q^T via the shared sweep (damp=1, free diagonal).
		// The sweep overwrites T_k, which nothing reads again: the swap
		// below makes its buffer the next sweep's output.
		sw.Sweep(tPrev, tNext, tDiag(k), 1, false)
		st.Iterations++
		coeff *= opt.C / float64(k+1) // e^-C * C^(k+1)/(k+1)!
		ad, td := acc.Data(), tNext.Data()
		// Element-wise, so splitting across workers is bit-identical.
		par.Do(workers, func(w int) {
			lo, hi := par.Range(len(ad), workers, w)
			for i := lo; i < hi; i++ {
				ad[i] += coeff * td[i]
			}
		})
		tPrev, tNext = tNext, tPrev
	}
	st.SweepTime = time.Since(t1)
	sws := sw.Stats()
	st.InnerAdds, st.OuterAdds = sws.InnerAdds, sws.OuterAdds
	st.AuxBytes = sw.AuxBytes() + plan.Bytes()
	st.StateBytes = acc.Bytes() + tPrev.Bytes() + tNext.Bytes()
	return simmat.Expand(sw.Slots(), acc, expC), st, nil
}

// tDiag is T_k's diagonal value outside the block: 1 for T_0 = I, 0 for
// every T_k a sweep with a free diagonal produced.
func tDiag(k int) float64 {
	if k == 0 {
		return 1
	}
	return 0
}

// ComputeTiled runs the differential iteration against the tiled backend
// selected by opt.Tile: the accumulator and both T_k ping-pong iterates
// share one TileStore, so opt.Tile's MaxMemoryBytes bounds the whole 3m^2
// state. Scores are bit-identical to Compute for every block size and
// worker count. The caller owns the result: Close it to release the store.
func ComputeTiled(g *graph.Graph, opt Options) (*simmat.Expanded, *Stats, error) {
	if err := opt.normalize(); err != nil {
		return nil, nil, err
	}
	store, err := simmat.NewTileStore(opt.Tile)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*simmat.Expanded, *Stats, error) {
		store.Close()
		return nil, nil, err
	}
	st := &Stats{}

	t0 := time.Now()
	var plan *partition.Plan
	if opt.DisableSharing {
		plan = partition.TrivialPlan(g)
	} else {
		plan, err = partition.BuildPlan(g, partition.Options{})
		if err != nil {
			return fail(err)
		}
	}
	st.PlanTime = time.Since(t0)
	st.NumSets = plan.NumSets
	st.PlanAdditions = plan.Additions
	st.ScratchAdditions = plan.ScratchAdditions
	st.ShareRatio = plan.ShareRatio()
	st.AvgDiff = plan.AvgDiff

	expC := math.Exp(-opt.C)
	sw := core.NewParallelSweeper(g, plan, false, opt.DisableSharing, opt.Workers)
	workers := sw.Workers()
	m := sw.Kept()

	acc, err := store.NewDiagonal(m, expC) // S^_0 = e^-C I
	if err != nil {
		return fail(err)
	}
	tPrev, err := store.NewIdentity(m) // T_0 = I
	if err != nil {
		return fail(err)
	}
	tNext, err := store.NewTiled(m)
	if err != nil {
		return fail(err)
	}

	t1 := time.Now()
	coeff := expC
	for k := 0; k < opt.K; k++ {
		if err := sw.SweepTiled(tPrev, tNext, tDiag(k), 1, false); err != nil {
			return fail(err)
		}
		st.Iterations++
		coeff *= opt.C / float64(k+1) // e^-C * C^(k+1)/(k+1)!
		if err := acc.AddScaled(tNext, coeff, workers); err != nil {
			return fail(err)
		}
		tPrev, tNext = tNext, tPrev
	}
	st.SweepTime = time.Since(t1)
	sws := sw.Stats()
	st.InnerAdds, st.OuterAdds = sws.InnerAdds, sws.OuterAdds
	st.AuxBytes = sw.AuxBytes() + plan.Bytes()
	st.StateBytes = acc.Bytes() + tPrev.Bytes() + tNext.Bytes()
	tPrev.Release()
	tNext.Release()
	st.Tile = store.Metrics()
	return simmat.Expand(sw.Slots(), acc, expC), st, nil
}
