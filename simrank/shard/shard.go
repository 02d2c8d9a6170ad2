// Package shard partitions a SimRank walk index into per-vertex-range
// shards and rebuilds single-node answers from their partials.
//
// The partition is horizontal: shard i stores the walk rows of a
// contiguous vertex range [lo_i, hi_i), bit-identical to the same rows of
// an unsharded index (oipsr/internal/walkindex's partition invariant).
// Because the coupled walks are pure hash functions of (graph, options),
// every shard — holding the full graph, which is tiny next to the path
// store — can recompute any foreign vertex's walks on demand, so any shard
// can answer "score every vertex I own against these sources" for
// arbitrary sources. Per-target scores are independent, so a router
// concatenates per-shard partial rows into the exact single-node dense
// row; similarity joins shard along the fingerprint axis instead and merge
// by set union + shared tail ranking. Nothing in the merge does float
// arithmetic, which is why sharded answers are byte-identical to
// single-node ones, not merely close.
//
// The handle over one shard's rows is query.Index, the type that serves
// the full range too; what lives here is about fleets. Plan and BuildAll
// produce a shard directory: one CRC-sealed shard file per range plus a
// versioned manifest (manifest.go) binding the files, their checksums, and
// the build parameters together; OpenShard loads one range back. Serving
// lives in oipsr/internal/simrankd (shard mode and router mode).
package shard

import (
	"context"
	"fmt"

	"oipsr/graph"
	"oipsr/internal/walkindex"
	"oipsr/simrank/query"
)

// Range is one planned shard's vertex range [Lo, Hi).
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Plan partitions [0, n) into `shards` contiguous ranges, balanced to
// within one vertex — the same split the engines use for worker ranges, so
// shard boundaries are deterministic for a given (n, shards). shards may
// exceed n, leaving empty trailing ranges (legal, if pointless).
func Plan(n, shards int) ([]Range, error) {
	if n < 0 {
		return nil, fmt.Errorf("shard: negative vertex count %d", n)
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	out := make([]Range, shards)
	for i := range out {
		// Balanced contiguous split: the first n%shards ranges get one
		// extra vertex (par.Range's arithmetic, inlined to keep the planned
		// layout a documented contract rather than an implementation echo).
		width, extra := n/shards, n%shards
		lo := i*width + min(i, extra)
		hi := lo + width
		if i < extra {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
	}
	return out, nil
}

// Shard is the name one range of a fleet goes by: a query.Index over
// [Lo, Hi) — every method is that type's — plus PartialScores, the name the
// owned slice of a score row had before the two handles became one.
type Shard struct{ *query.Index }

// Build constructs the shard owning vertex range [lo, hi) of g. The stored
// rows are bit-identical to rows [lo, hi) of query.BuildIndex(g, opt)'s
// walk index.
func Build(g *graph.Graph, opt query.Options, lo, hi int) (*Shard, error) {
	wi, err := walkindex.Build(g, opt, lo, hi)
	if err != nil {
		return nil, err
	}
	return &Shard{query.NewIndex(wi, g)}, nil
}

// PartialScores is MultiSource: one partial row per source, row[v-Lo()]
// being s(q, v) — the exact [Lo, Hi) sub-slice of the single-node dense row.
func (s *Shard) PartialScores(ctx context.Context, sources []int, workers int) ([][]float64, error) {
	return s.MultiSource(ctx, sources, workers)
}
