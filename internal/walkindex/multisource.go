package walkindex

import (
	"context"

	"oipsr/graph"
)

// MultiSource estimates s(q, v) for every source q in sources and every
// OWNED target v in [lo, hi), returning one score row per source:
// out[i][v-lo] is s(sources[i], v), and the entry for an owned source
// itself is exactly 1. Each source is answered from the coalescence order
// (walkorder.go) over the owned range, in parallel over sources. On a
// full-range index every row is bit-identical to SingleSource(sources[i],
// nil); on a narrower range it is the exact [lo, hi) sub-slice of that row
// — for every worker count (1 = serial, <1 = all CPUs): per (source,
// target) pair the same first-meeting weights are accumulated in the same
// fingerprint order and scaled by the same 1/R, so not even the
// floating-point rounding differs, and concatenating the rows of a
// covering set of ranges reproduces the single-node answer without any
// merge arithmetic. Sources outside [lo, hi) are recomputed from g (see
// Index for when g may be nil).
//
// Sources must be valid vertex ids of the full graph (the serving layer
// validates); duplicates are allowed and produce identical rows.
//
// Cancelling ctx abandons the query at the next poll (every worker polls
// between fingerprints) and returns the context's error; the returned rows
// are then nil. An uncancelled ctx never changes the result.
func (ix *Index) MultiSource(ctx context.Context, g *graph.Graph, sources []int, workers int) ([][]float64, error) {
	width := ix.hi - ix.lo
	out := make([][]float64, len(sources))
	for i := range out {
		out[i] = make([]float64, width)
	}
	if len(sources) == 0 || width == 0 {
		return out, ctx.Err()
	}
	err := ix.eachSource(ctx, g, sources, workers, func(si int, src walkRow, self int) error {
		return ix.denseForestRow(ctx, src, self, out[si])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
