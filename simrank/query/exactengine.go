package query

import (
	"context"
	"fmt"

	"oipsr/internal/linsr"
)

// ExactTol is the linearized solver's tolerance behind ExactSingleSource:
// the diagonal-correction residual target and the series truncation, so
// exact answers agree with the converged conventional fixed point to well
// under 1e-8.
const ExactTol = 1e-10

// ExactSingleSource computes row q of the converged SimRank matrix exactly
// (to ExactTol) via the linearized engine: a per-graph diagonal solve the
// first time (or after edits — PrepareExact moves that cost to startup),
// then O(K·m) per query with no n² state. dst follows SingleSourceInto's
// contract: length N() or nil to allocate. Requires an attached graph.
// Cancelling ctx abandons the solve at the next series-step boundary, and
// a wait for another call's diagonal solve at once.
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
	if err := ix.needExactGraph(); err != nil {
		return nil, err
	}
	row, _, err := ix.exact.SingleSource(ctx, ix.gen.Load(), ix.g, ix.exactOptions(0), q, dst)
	return row, err
}

// PrepareExact eagerly runs the diagonal solve ExactSingleSource otherwise
// performs lazily on its first call (or its first call after an edit
// batch), moving that one-time cost out of a request's latency budget. The
// simrankd server calls this at startup under -prewarm-exact.
func (ix *Index) PrepareExact(ctx context.Context, workers int) error {
	if err := ix.needExactGraph(); err != nil {
		return err
	}
	_, _, err := ix.exact.Solver(ctx, ix.gen.Load(), ix.g, ix.exactOptions(workers))
	return err
}

// ExactStats returns the cached linearized solver's build statistics, and
// whether a solver is currently built for the attached graph's generation.
// It never waits for a solve in progress.
func (ix *Index) ExactStats() (linsr.Stats, bool) {
	return ix.exact.Stats(ix.gen.Load(), ix.g)
}

// needExactGraph is what the exact engine requires: a full range and the
// graph to solve over. Queries run under the server's read lock, so the
// generation and graph the solver is keyed by are stable behind it.
func (ix *Index) needExactGraph() error {
	if err := ix.needFull("the exact engine"); err != nil {
		return err
	}
	if ix.g == nil {
		return fmt.Errorf("query: exact queries need the source graph (AttachGraph after Load)")
	}
	return nil
}

// exactOptions are the solver options of the exact engine.
func (ix *Index) exactOptions(workers int) linsr.Options {
	return linsr.Options{C: ix.wi.C(), Tol: ExactTol, Workers: workers}
}
