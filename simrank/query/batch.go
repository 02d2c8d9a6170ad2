package query

import (
	"context"
	"fmt"

	"oipsr/internal/par"
	"oipsr/internal/sparserow"
)

// Batched queries. Serving traffic rarely arrives one source at a time:
// recommendation backfills, "similar items" widgets and offline audits ask
// about many sources at once. MultiSource and TopKBatch answer a whole
// batch in one shared traversal of the walk index (see
// oipsr/internal/walkindex for the sweep), so cost per source shrinks as
// the batch grows — while every row stays bit-identical to the
// corresponding independent SingleSource/TopK call, for every worker
// count. cmd/simrankd exposes this path as POST /v1/batch.

// checkSources is what every batch call requires: the graph a partial
// range recomputes foreign sources from, and every source a vertex of it.
func (ix *Index) checkSources(what string, sources []int) error {
	if err := ix.needGraph(what); err != nil {
		return err
	}
	n := ix.wi.N()
	for i, q := range sources {
		if q < 0 || q >= n {
			return fmt.Errorf("query: source %d (batch item %d) out of range [0,%d)", q, i, n)
		}
	}
	return nil
}

// MultiSource estimates s(q, v) for every source q in sources and every
// vertex v, returning one dense row per source in batch order; entry
// sources[i] of row i is exactly 1. Rows are bit-identical to independent
// SingleSource calls, for every worker count (1 = serial, anything below 1
// means all CPUs), but the whole batch costs a single traversal of the
// walk index instead of one per source. Duplicate sources are allowed.
// Cancelling ctx abandons the sweep and returns the context's error.
// On a partial range each row is the owned slice of the full one —
// row[v-Lo()] is s(q, v) — for sources anywhere in the graph.
func (ix *Index) MultiSource(ctx context.Context, sources []int, workers int) ([][]float64, error) {
	if err := ix.checkSources("MultiSource", sources); err != nil {
		return nil, err
	}
	return ix.wi.MultiSource(ctx, ix.g, sources, workers)
}

// SparseRows is MultiSource returning each row as its non-zero entries —
// entry (q, 1) included — bit for bit the non-zero cells of the dense row.
// On an index held in memory the rows come straight from the walk index's
// coalescence order and no n-sized vector is ever written, so a batch costs
// the sum of its answers; a mapped index sweeps as MultiSource does and
// converts. On a partial range each row is the run of the full sparse row
// that falls in [Lo, Hi), keyed by global vertex id. The rows are pooled:
// the caller hands them back with sparserow.Release and keeps nothing that
// points into them.
func (ix *Index) SparseRows(ctx context.Context, sources []int, workers int) ([]*sparserow.Row, error) {
	if err := ix.checkSources("SparseRows", sources); err != nil {
		return nil, err
	}
	return ix.wi.SparseRows(ctx, ix.g, sources, workers)
}

// TopKBatch answers TopK(q, k, opt) for every source q in sources,
// returning the result lists in batch order. Candidate scoring is one
// shared MultiSource traversal; the optional exact rerank runs per source
// (in parallel across sources, each with its own memo). Every result list
// is bit-identical to the corresponding independent TopK call, for every
// worker count. Cancelling ctx abandons the batch — mid-sweep or
// mid-rerank — and returns the context's error.
func (ix *Index) TopKBatch(ctx context.Context, sources []int, k int, opt *TopKOptions, workers int) ([][]Ranked, error) {
	if err := ix.checkSources("TopKBatch", sources); err != nil {
		return nil, err
	}
	k, opt, err := ix.checkTopK(k, opt)
	if err != nil {
		return nil, err
	}

	rows, err := ix.wi.MultiSource(ctx, ix.g, sources, workers)
	if err != nil {
		return nil, err
	}
	out := make([][]Ranked, len(sources))
	parts := par.ResolveMax(workers, len(sources))
	par.Do(parts, func(w int) {
		lo, hi := par.Range(len(sources), parts, w)
		for i := lo; i < hi; i++ {
			// rankFromScores fails only on cancellation; workers bail and
			// the partial output is discarded by the ctx check below.
			res, err := ix.rankFromScores(ctx, rows[i], sources[i], k, opt)
			if err != nil {
				return
			}
			out[i] = res
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
