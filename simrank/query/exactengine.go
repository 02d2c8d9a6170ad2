package query

import (
	"context"
	"fmt"
	"sync"

	"oipsr/graph"
	"oipsr/internal/linsr"
)

// ExactTol is the linearized solver's tolerance behind ExactSingleSource:
// the diagonal-correction residual target and the series truncation, so
// exact answers agree with the converged conventional fixed point to well
// under 1e-8.
const ExactTol = 1e-10

// exactState caches the linearized solver the exact query path uses. The
// solver depends only on the attached graph, so it is keyed by (generation,
// graph pointer): any applied edit bumps the generation and the next exact
// query rebuilds. The mutex serializes concurrent lazy builds; once built,
// the solver itself is immutable and safe for concurrent queries.
type exactState struct {
	mu      sync.Mutex
	solver  *linsr.Solver
	scratch *sync.Pool // of *linsr.Scratch for the cached solver
	gen     uint64
	g       *graph.Graph
}

// ExactSingleSource computes row q of the converged SimRank matrix exactly
// (to ExactTol) via the linearized engine: a per-graph diagonal solve the
// first time (or after edits — PrepareExact moves that cost to startup),
// then O(K·m) per query with no n² state. dst follows SingleSourceInto's
// contract: length N() or nil to allocate. Requires an attached graph.
// Cancelling ctx abandons the solve at the next series-step boundary.
//
// Unlike SingleSource's walk estimates, entry q is 1 only up to the solve
// residual, and scores are deterministic — independent of the index seed.
func (ix *Index) ExactSingleSource(ctx context.Context, q int, dst []float64) ([]float64, error) {
	n := ix.wi.N()
	if q < 0 || q >= n {
		return nil, fmt.Errorf("query: vertex %d out of range [0,%d)", q, n)
	}
	if dst != nil && len(dst) != n {
		return nil, fmt.Errorf("query: buffer length %d, want %d", len(dst), n)
	}
	sol, pool, err := ix.exactSolver(ctx, 0)
	if err != nil {
		return nil, err
	}
	sc := pool.Get().(*linsr.Scratch)
	defer pool.Put(sc)
	return sol.SingleSourceScratch(ctx, q, dst, sc)
}

// PrepareExact eagerly runs the diagonal solve ExactSingleSource otherwise
// performs lazily on its first call (or its first call after an edit
// batch), moving that one-time cost out of a request's latency budget. The
// simrankd server calls this at startup under -prewarm-exact.
func (ix *Index) PrepareExact(ctx context.Context, workers int) error {
	_, _, err := ix.exactSolver(ctx, workers)
	return err
}

// ExactStats returns the cached linearized solver's build statistics, and
// whether a solver is currently built for the attached graph's generation.
func (ix *Index) ExactStats() (linsr.Stats, bool) {
	gen := ix.gen.Load()
	ix.exact.mu.Lock()
	defer ix.exact.mu.Unlock()
	if ix.exact.solver == nil || ix.exact.gen != gen || ix.exact.g != ix.g {
		return linsr.Stats{}, false
	}
	return ix.exact.solver.Stats(), true
}

// exactSolver returns the solver for the current (generation, graph),
// building it under the exact-state mutex when missing or stale. Queries
// run under the server's read lock, so gen and g are stable here; the
// mutex only serializes concurrent first builds.
func (ix *Index) exactSolver(ctx context.Context, workers int) (*linsr.Solver, *sync.Pool, error) {
	if err := ix.needFull("the exact engine"); err != nil {
		return nil, nil, err
	}
	if ix.g == nil {
		return nil, nil, fmt.Errorf("query: exact queries need the source graph (AttachGraph after Load)")
	}
	gen := ix.gen.Load()
	ix.exact.mu.Lock()
	defer ix.exact.mu.Unlock()
	if ix.exact.solver != nil && ix.exact.gen == gen && ix.exact.g == ix.g {
		return ix.exact.solver, ix.exact.scratch, nil
	}
	sol, err := linsr.New(ctx, ix.g, linsr.Options{C: ix.wi.C(), Tol: ExactTol, Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	ix.exact.solver = sol
	ix.exact.scratch = &sync.Pool{New: func() any { return sol.NewScratch() }}
	ix.exact.gen = gen
	ix.exact.g = ix.g
	return sol, ix.exact.scratch, nil
}
