package simrank

import (
	"context"
	"fmt"
	"time"

	"oipsr/graph"
	"oipsr/internal/core"
	"oipsr/internal/dsr"
	"oipsr/internal/linsr"
	"oipsr/internal/mtxsr"
	"oipsr/internal/naive"
	"oipsr/internal/numeric"
	"oipsr/internal/par"
	"oipsr/internal/psum"
	"oipsr/internal/simmat"
	"oipsr/internal/sparserow"
	"oipsr/internal/walkindex"
)

// engine is one entry of the engine table.
type engine struct {
	// tiled: compute honours BlockSize, running against the tiled
	// score-matrix backend (bounded resident memory, spill-to-disk).
	// Compute rejects BlockSize > 0 for an engine without it.
	tiled bool
	// compute materializes all-pairs scores. It ignores ctx unless the
	// engine polls it: Linearized at solve-step boundaries, MonteCarlo
	// once per fingerprint of every row.
	compute func(ctx context.Context, g *graph.Graph, o Options) (simmat.Source, *Stats, error)
}

// engines names each engine once: membership is what makes an Algorithm
// valid, and the sorted keys are Algorithms. Every engine is
// deterministic: for fixed Options, scores are bit-identical for every
// worker count.
var engines = map[Algorithm]engine{
	OIPSR:      {tiled: true, compute: computeOIPSR},
	OIPDSR:     {tiled: true, compute: computeOIPDSR},
	PsumSR:     {compute: computePsumSR},
	Naive:      {compute: computeNaive},
	MtxSR:      {compute: computeMtxSR},
	MonteCarlo: {compute: computeMonteCarlo},
	Linearized: {compute: computeLinearized},
}

// tile returns the tiled-backend knobs of o; BlockSize 0 leaves the
// backend off.
func (o Options) tile() simmat.TileOptions {
	return simmat.TileOptions{
		BlockSize:      o.BlockSize,
		MaxMemoryBytes: o.MaxMemoryBytes,
		SpillDir:       o.SpillDir,
	}
}

// computeOIPSR is the paper's OIP-SR: partial-sums sharing over the
// DMST-Reduce plan.
func computeOIPSR(_ context.Context, g *graph.Graph, o Options) (simmat.Source, *Stats, error) {
	m, st, err := core.Compute(g, core.Options{
		C:            o.C,
		K:            o.K,
		Eps:          o.Eps,
		StopDiff:     o.StopDiff,
		DisableOuter: o.DisableOuterSharing,
		Workers:      o.Workers,
		Tile:         o.tile(),
	})
	if err != nil {
		return nil, nil, err
	}
	return m, oipStats(OIPSR, st), nil
}

// computeOIPDSR is OIP-DSR: the differential (exponential-convergence)
// SimRank iteration with OIP sharing.
func computeOIPDSR(_ context.Context, g *graph.Graph, o Options) (simmat.Source, *Stats, error) {
	m, st, err := dsr.Compute(g, dsr.Options{
		C:       o.C,
		K:       o.K,
		Eps:     o.Eps,
		Workers: o.Workers,
		Tile:    o.tile(),
	})
	if err != nil {
		return nil, nil, err
	}
	return m, oipStats(OIPDSR, st), nil
}

// oipStats maps the Stats of an OIP engine, OIP-SR or OIP-DSR.
func oipStats(alg Algorithm, st *core.Stats) *Stats {
	return &Stats{
		Algorithm:        alg,
		Iterations:       st.Iterations,
		PlanTime:         st.PlanTime,
		ComputeTime:      st.SweepTime,
		InnerAdds:        st.InnerAdds,
		OuterAdds:        st.OuterAdds,
		AuxBytes:         st.AuxBytes,
		StateBytes:       st.StateBytes,
		ShareRatio:       st.ShareRatio,
		AvgDiff:          st.AvgDiff,
		NumSets:          st.NumSets,
		FinalDiff:        st.FinalDiff,
		TilePeakBytes:    st.Tile.HighWaterBytes,
		TileSpills:       st.Tile.Spills,
		TileLoads:        st.Tile.Loads,
		TileSpilledBytes: st.Tile.SpilledBytes,
	}
}

// computePsumSR is Lizorkin et al.'s partial sums memoization baseline.
func computePsumSR(_ context.Context, g *graph.Graph, o Options) (simmat.Source, *Stats, error) {
	c, k, err := geometricSchedule(o)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	m, st, err := psum.Compute(g, psum.Options{C: c, K: k, Threshold: o.Threshold, Workers: o.Workers})
	if err != nil {
		return nil, nil, err
	}
	return m, &Stats{
		Algorithm:   PsumSR,
		Iterations:  st.Iterations,
		ComputeTime: time.Since(t0),
		InnerAdds:   st.InnerAdds,
		OuterAdds:   st.OuterAdds,
		AuxBytes:    st.AuxBytes,
		StateBytes:  simmat.StateBytes(g.NumVertices(), 2),
		SievedPairs: st.SievedPairs,
	}, nil
}

// computeNaive is the original Jeh-Widom iteration, the conformance oracle.
func computeNaive(_ context.Context, g *graph.Graph, o Options) (simmat.Source, *Stats, error) {
	c, k, err := geometricSchedule(o)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	m, err := naive.ComputeWorkers(g, c, k, o.Workers)
	if err != nil {
		return nil, nil, err
	}
	return m, &Stats{
		Algorithm:   Naive,
		Iterations:  k,
		ComputeTime: time.Since(t0),
		StateBytes:  simmat.StateBytes(g.NumVertices(), 2),
	}, nil
}

// computeMtxSR is Li et al.'s SVD-based low-rank approximation.
func computeMtxSR(_ context.Context, g *graph.Graph, o Options) (simmat.Source, *Stats, error) {
	c := o.C
	if c == 0 {
		c = 0.6
	}
	m, st, err := mtxsr.Compute(g, mtxsr.Options{
		C:       c,
		Rank:    o.Rank,
		Seed:    o.Seed,
		Workers: o.Workers,
	})
	if err != nil {
		return nil, nil, err
	}
	return m, &Stats{
		Algorithm:   MtxSR,
		Iterations:  st.SolveIters,
		PlanTime:    st.SVDTime,
		ComputeTime: st.SolveTime,
		AuxBytes:    st.AuxBytes,
		StateBytes:  simmat.StateBytes(g.NumVertices(), 1),
		Rank:        st.Rank,
		Residual:    st.Residual,
	}, nil
}

// computeMonteCarlo is the Fogaras-Racz first-meeting-time estimator,
// answered by the serving walk index: one full-range index build, then
// every row is that index's sparse row of the source, written out. A row
// is therefore bit-identical to query.Index.SingleSource under the same
// options, and the matrix is exactly symmetric. Walks and K are capped at 65535 (the walk
// hash's 16-bit fields); ctx is polled once per fingerprint of every row.
func computeMonteCarlo(ctx context.Context, g *graph.Graph, o Options) (simmat.Source, *Stats, error) {
	t0 := time.Now()
	n := g.NumVertices()
	ix, err := walkindex.Build(g, walkindex.Options{
		C:       o.C,
		K:       o.K,
		Eps:     o.Eps,
		Walks:   o.Walks,
		Seed:    o.Seed,
		Workers: o.Workers,
	}, 0, n)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	m, err := fillRows(n, o.Workers, func() rowFunc {
		source := make([]int, 1)
		return func(q int, dst []float64) error {
			source[0] = q
			rows, err := ix.SparseRows(ctx, nil, source, 1)
			if err != nil {
				return err
			}
			rows[0].Densify(dst, 0)
			sparserow.Release(rows...)
			return nil
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return m, &Stats{
		Algorithm:   MonteCarlo,
		Iterations:  ix.Walks(),
		PlanTime:    t1.Sub(t0),
		ComputeTime: time.Since(t1),
		AuxBytes:    ix.Bytes() + ix.ForestBytes(),
		StateBytes:  simmat.StateBytes(n, 1),
	}, nil
}

// computeLinearized is Maehara et al.'s linearization (internal/linsr): a
// one-off diagonal-correction solve, then every row is the solver's exact
// single-source answer, so any row is bit-identical to
// linsr.Solver.SingleSource. Eps is the solve tolerance; K (when set) pins
// the series horizon like the geometric engines' iteration count.
func computeLinearized(ctx context.Context, g *graph.Graph, o Options) (simmat.Source, *Stats, error) {
	sol, err := linsr.New(ctx, g, linsr.Options{C: o.C, Tol: o.Eps, T: o.K, Workers: o.Workers})
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	n := g.NumVertices()
	m, err := fillRows(n, o.Workers, func() rowFunc {
		sc := sol.NewScratch()
		return func(q int, dst []float64) error {
			_, err := sol.SingleSourceScratch(ctx, q, dst, sc)
			return err
		}
	})
	if err != nil {
		return nil, nil, err
	}
	st := sol.Stats()
	return m, &Stats{
		Algorithm:   Linearized,
		Iterations:  st.SolveIters,
		PlanTime:    st.BuildTime,
		ComputeTime: time.Since(t0),
		Residual:    st.Residual,
		AuxBytes:    st.AuxBytes,
		StateBytes:  simmat.StateBytes(n, 1),
	}, nil
}

// geometricSchedule applies the shared defaulting rules (C = 0.6,
// eps = 1e-3, Lizorkin iteration bound) for the engines that take a plain
// (C, K) pair.
func geometricSchedule(o Options) (c float64, k int, err error) {
	c = o.C
	if c == 0 {
		c = 0.6
	}
	if !(c > 0 && c < 1) {
		return 0, 0, fmt.Errorf("simrank: damping factor %v outside (0,1)", c)
	}
	k = o.K
	if k < 0 {
		return 0, 0, fmt.Errorf("simrank: negative iteration count %d", k)
	}
	if k == 0 {
		eps := o.Eps
		if eps == 0 {
			eps = 1e-3
		}
		if !(eps > 0 && eps < 1) {
			return 0, 0, fmt.Errorf("simrank: accuracy eps %v outside (0,1)", eps)
		}
		k = numeric.IterationsConventional(c, eps)
	}
	return c, k, nil
}

// rowFunc writes row q of the scores into dst, which has length n.
type rowFunc func(q int, dst []float64) error

// fillRows materializes all-pairs scores one single-source row at a time,
// for the engines whose Compute is their row answer repeated. Rows are
// split across the worker pool; newRow runs once per worker, so a row
// function may own scratch. A failing row stops its worker, and the error
// of the lowest-numbered failing worker is returned.
func fillRows(n, workers int, newRow func() rowFunc) (*simmat.Matrix, error) {
	m := simmat.New(n)
	workers = par.ResolveMax(workers, n)
	errs := make([]error, workers)
	par.Do(workers, func(w int) {
		row := newRow()
		lo, hi := par.Range(n, workers, w)
		for q := lo; q < hi; q++ {
			if err := row(q, m.Row(q)); err != nil {
				errs[w] = err
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}
