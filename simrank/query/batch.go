package query

import (
	"context"
	"fmt"

	"oipsr/internal/par"
	"oipsr/internal/sparserow"
)

// Batched queries. Serving traffic rarely arrives one source at a time:
// recommendation backfills, "similar items" widgets and offline audits ask
// about many sources at once. SparseRows answers a whole batch from the
// walk index's coalescence order (see oipsr/internal/walkindex), in
// parallel over sources, and MultiSource and TopKBatch are its dense and
// ranked forms — every row bit-identical to the corresponding independent
// SingleSource/TopK call, for every worker count. cmd/simrankd exposes
// this path as POST /v1/batch.

// checkSources is what every batch call requires: the graph the order is
// sorted from and a partial range recomputes foreign sources from, and
// every source a vertex of it.
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
// sources[i] of row i is exactly 1. Each row is the source's SparseRows row
// written out, bit-identical to an independent SingleSource call, for every
// worker count (1 = serial, anything below 1 means all CPUs). Duplicate
// sources are allowed. Cancelling ctx abandons the batch and returns the
// context's error. On a partial range each row is the owned slice of the
// full one — row[v-Lo()] is s(q, v) — for sources anywhere in the graph.
func (ix *Index) MultiSource(ctx context.Context, sources []int, workers int) ([][]float64, error) {
	if err := ix.checkSources("MultiSource", sources); err != nil {
		return nil, err
	}
	rows, err := ix.wi.SparseRows(ctx, ix.g, sources, workers)
	if err != nil {
		return nil, err
	}
	defer sparserow.Release(rows...)
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = make([]float64, ix.wi.Width())
		row.Densify(out[i], ix.wi.Lo())
	}
	return out, nil
}

// SparseRows estimates s(q, v) for every source q in sources and every
// owned vertex v, returning each row as its non-zero entries — entry (q, 1)
// included — keyed by global vertex id and ascending. The rows come
// straight from the walk index's coalescence order and no n-sized vector is
// written, so a batch costs the sum of its answers; every other row this
// package returns, dense or ranked, is made from them. On a partial range
// each row is the run of the full row that falls in [Lo, Hi). The rows are
// pooled: the caller hands them back with sparserow.Release and keeps
// nothing that points into them.
func (ix *Index) SparseRows(ctx context.Context, sources []int, workers int) ([]*sparserow.Row, error) {
	if err := ix.checkSources("SparseRows", sources); err != nil {
		return nil, err
	}
	return ix.wi.SparseRows(ctx, ix.g, sources, workers)
}

// TopKBatch answers TopK(q, k, opt) for every source q in sources,
// returning the result lists in batch order. The rows are one SparseRows
// batch; ranking and the optional exact rerank run per source (in parallel
// across sources, each rerank with its own memo). Every result list
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

	rows, err := ix.wi.SparseRows(ctx, ix.g, sources, workers)
	if err != nil {
		return nil, err
	}
	defer sparserow.Release(rows...)
	out := make([][]Ranked, len(sources))
	parts := par.ResolveMax(workers, len(sources))
	par.Do(parts, func(w int) {
		lo, hi := par.Range(len(sources), parts, w)
		for i := lo; i < hi; i++ {
			// rank fails only on cancellation; workers bail and the
			// partial output is discarded by the ctx check below.
			res, err := ix.rank(ctx, rows[i], sources[i], k, opt)
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
