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
// The planner (Plan) and builder (BuildAll) produce a shard directory: one
// CRC-sealed index file per shard plus a versioned manifest (manifest.go)
// binding the files, their checksums, and the build parameters together.
// Serving lives in oipsr/internal/simrankd (shard mode and router mode).
package shard

import (
	"context"
	"fmt"
	"sync/atomic"

	"oipsr/graph"
	"oipsr/internal/sparserow"
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

// Shard is one serving shard: a walk index over the owned range plus the
// full graph it was built against. Safe for concurrent queries; ApplyEdits is
// the one mutating operation and must be serialized against queries (the
// shard server holds an RWMutex exactly like the single-node daemon).
type Shard struct {
	sx *walkindex.Index // owns [Lo, Hi)
	g  *graph.Graph
	// gen counts applied updates; the router folds every shard's gen into
	// its cache keys (see Generation).
	gen atomic.Uint64
}

// Build constructs the shard owning vertex range [lo, hi) of g. The stored
// rows are bit-identical to rows [lo, hi) of query.BuildIndex(g, opt)'s
// walk index.
func Build(g *graph.Graph, opt query.Options, lo, hi int) (*Shard, error) {
	sx, err := walkindex.Build(g, walkindex.Options(opt), lo, hi)
	if err != nil {
		return nil, err
	}
	return &Shard{sx: sx, g: g}, nil
}

// N returns the vertex count of the full graph.
func (s *Shard) N() int { return s.sx.N() }

// Lo returns the first owned vertex.
func (s *Shard) Lo() int { return s.sx.Lo() }

// Hi returns one past the last owned vertex.
func (s *Shard) Hi() int { return s.sx.Hi() }

// Width returns the number of owned vertices.
func (s *Shard) Width() int { return s.sx.Width() }

// Owns reports whether the shard stores v's walks.
func (s *Shard) Owns(v int) bool { return s.sx.Owns(v) }

// C returns the damping factor.
func (s *Shard) C() float64 { return s.sx.C() }

// Horizon returns the walk horizon K.
func (s *Shard) Horizon() int { return s.sx.Horizon() }

// Walks returns the number of fingerprints R.
func (s *Shard) Walks() int { return s.sx.Walks() }

// Seed returns the build seed.
func (s *Shard) Seed() int64 { return s.sx.Seed() }

// Bytes returns the size of the walk storage: resident memory for a dense
// shard, the compressed backing file for a mapped one.
func (s *Shard) Bytes() int64 { return s.sx.Bytes() }

// ForestBytes returns the size of the coalescence order a dense shard
// answers from, on top of Bytes; 0 for a mapped shard.
func (s *Shard) ForestBytes() int64 { return s.sx.ForestBytes() }

// VisitBytes returns the size of the inverted visit index ApplyEdits
// repairs the owned walks through, on top of Bytes; 0 until PrepareUpdates
// or the first applied batch builds it.
func (s *Shard) VisitBytes() int64 { return s.sx.VisitBytes() }

// Backend reports the walk storage backing this shard: "dense" for
// in-memory shards, "mapped" (or "mapped-readat" without mmap) for
// demand-paged ones opened via OpenShardMapped.
func (s *Shard) Backend() string { return s.sx.Backend() }

// Close releases resources held by the walk storage — the file mapping
// for a mapped shard, nothing for a dense one.
func (s *Shard) Close() error { return s.sx.Close() }

// Graph returns the attached graph, or nil for a loaded shard without
// AttachGraph.
func (s *Shard) Graph() *graph.Graph { return s.g }

// Generation returns the number of updates applied since build/load. The
// router folds the per-shard generation vector into its cache keys, the
// same scheme the single-node daemon uses with query.Index.Generation.
func (s *Shard) Generation() uint64 { return s.gen.Load() }

// AttachGraph re-attaches the source graph to a loaded shard. Foreign
// sources are recomputed from it, so unlike the single-node index — where
// the graph is optional until reranking — a serving shard requires it; the
// vertex count is validated, deeper mismatches are the operator's contract
// (the manifest's seed/params check catches most).
func (s *Shard) AttachGraph(g *graph.Graph) error {
	if g.NumVertices() != s.sx.N() {
		return fmt.Errorf("shard: graph has %d vertices, shard was built on %d", g.NumVertices(), s.sx.N())
	}
	s.g = g
	return nil
}

// PartialScores estimates s(q, v) for every source q and every owned
// target v, returning one partial row per source (row[v-Lo()] is s(q, v)).
// Each row is the exact [Lo, Hi) sub-slice of the single-node dense row.
func (s *Shard) PartialScores(ctx context.Context, sources []int, workers int) ([][]float64, error) {
	if err := s.checkSources(sources); err != nil {
		return nil, err
	}
	return s.sx.MultiSource(ctx, s.g, sources, workers)
}

// SparsePartialScores is PartialScores returning each partial row as its
// non-zero entries, keyed by global vertex id: the run of the single-node
// sparse row that falls in [Lo, Hi), so appending the runs of a covering set
// of shards in range order reproduces it. The rows are pooled; the caller
// hands them back with sparserow.Release.
func (s *Shard) SparsePartialScores(ctx context.Context, sources []int, workers int) ([]*sparserow.Row, error) {
	if err := s.checkSources(sources); err != nil {
		return nil, err
	}
	return s.sx.SparseRows(ctx, s.g, sources, workers)
}

// checkSources is what both score accessors require: the graph foreign
// sources are recomputed from, and every source a vertex of it.
func (s *Shard) checkSources(sources []int) error {
	if s.g == nil {
		return fmt.Errorf("shard: PartialScores needs the source graph (AttachGraph after load)")
	}
	n := s.sx.N()
	for _, q := range sources {
		if q < 0 || q >= n {
			return fmt.Errorf("shard: vertex %d out of range [0,%d)", q, n)
		}
	}
	return nil
}

// JoinCandidates enumerates the co-located candidate pairs of fingerprint
// range [fpLo, fpHi) within the threshold's prune depth; see
// walkindex.(*Index).JoinCandidates for the union/cap contract.
func (s *Shard) JoinCandidates(ctx context.Context, threshold float64, fpLo, fpHi, maxCandidates, workers int) ([]uint64, error) {
	if s.g == nil {
		return nil, fmt.Errorf("shard: JoinCandidates needs the source graph (AttachGraph after load)")
	}
	return s.sx.JoinCandidates(ctx, s.g, threshold, fpLo, fpHi, maxCandidates, workers)
}

// ScorePairs computes exact estimates for candidate keys (canonical
// a<<32|b), bit-identical to the single-node pair scores.
func (s *Shard) ScorePairs(ctx context.Context, keys []uint64, workers int) ([]walkindex.JoinPair, error) {
	if s.g == nil {
		return nil, fmt.Errorf("shard: ScorePairs needs the source graph (AttachGraph after load)")
	}
	n := s.sx.N()
	for _, key := range keys {
		a, b := int(key>>32), int(key&0xFFFFFFFF)
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, fmt.Errorf("shard: pair (%d,%d) out of range [0,%d)", a, b, n)
		}
	}
	return s.sx.ScorePairs(ctx, s.g, keys, workers)
}

// ApplyEdits applies a batch of edge edits to the attached graph and
// repairs the shard incrementally; the repaired shard is bit-identical to
// a fresh Build on the edited graph. Every shard of a fleet must receive
// the same batches (the router broadcasts /v1/edges for exactly this
// reason); edits are idempotent at the graph layer, so re-sending a batch
// after a partial broadcast failure converges rather than corrupts. On
// error the shard and graph are unchanged. A batch of pure no-ops keeps
// the generation, mirroring query.Index.ApplyEdits.
func (s *Shard) ApplyEdits(edits []graph.Edit, workers int) (query.UpdateStats, error) {
	if s.g == nil {
		return query.UpdateStats{}, fmt.Errorf("shard: ApplyEdits needs the source graph (AttachGraph after load)")
	}
	g2, sum, err := s.g.ApplyEdits(edits)
	if err != nil {
		return query.UpdateStats{}, err
	}
	if len(sum.DirtyIn) == 0 && len(sum.DirtyOut) == 0 {
		return query.UpdateStats{Generation: s.gen.Load()}, nil
	}
	changed, err := s.sx.Update(g2, sum.DirtyIn, workers)
	if err != nil {
		return query.UpdateStats{}, err
	}
	s.g = g2
	s.gen.Add(1)
	return query.UpdateStats{
		EdgesAdded:    sum.Added,
		EdgesRemoved:  sum.Removed,
		DirtyVertices: len(sum.DirtyIn),
		WalksRepaired: changed,
		Generation:    s.gen.Load(),
	}, nil
}

// PrepareUpdates eagerly builds the inverted visit index ApplyEdits
// otherwise builds lazily on the first batch.
func (s *Shard) PrepareUpdates(workers int) error {
	return s.sx.PrepareUpdate(workers)
}
