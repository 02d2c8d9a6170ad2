package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync/atomic"

	"oipsr/graph"
	"oipsr/internal/atomicio"
	"oipsr/internal/par"
	"oipsr/internal/sparserow"
	"oipsr/internal/walkindex"
)

// Options configure BuildIndex. The zero value means C = 0.6, horizon from
// eps = 1e-3, 100 walks per vertex, seed 0, all CPUs; the fields are
// documented on walkindex.Options, which this is.
type Options = walkindex.Options

// Index is the one handle over a walk index: the stored walks of a vertex
// range [Lo, Hi), the graph they were walked on, and the generation of the
// edits applied since. BuildIndex and the loaders produce the full range
// [0, n), which answers everything below; oipsr/simrank/shard produces the
// partial ranges of a fleet (NewIndex), which answer what is about their
// own rows — see the package comment — and refuse what needs all n with
// one error.
//
// It is safe for concurrent queries; Update and ApplyEdits are the only
// mutating operations and must be serialized against queries by the caller
// (the simrankd servers hold an RWMutex: queries under the read lock,
// updates under the write lock).
type Index struct {
	wi *walkindex.Index
	// g is the graph the index was built from: what exact reranking and
	// ApplyEdits work on, and what a partial range recomputes foreign walks
	// from. Nil after a load until AttachGraph.
	g *graph.Graph
	// gen counts applied updates; cache layers fold it into their keys so
	// pre-update responses can never be served post-update.
	gen atomic.Uint64
	// exact lazily holds the linearized-SimRank solver behind
	// ExactSingleSource, keyed by (generation, graph) so edits invalidate
	// it; see exactengine.go.
	exact exactState
}

// Ranked is one entry of a top-k result: a Vertex and its Score, encoded
// in JSON as {"vertex":…,"score":…}.
type Ranked = sparserow.Entry

// BuildIndex precomputes the walk index for g. The graph stays attached,
// so TopK reranking works immediately.
func BuildIndex(g *graph.Graph, opt Options) (*Index, error) {
	wi, err := walkindex.Build(g, opt, 0, g.NumVertices())
	if err != nil {
		return nil, err
	}
	return NewIndex(wi, g), nil
}

// NewIndex is the ranged constructor: the handle over a walk index of any
// vertex range. g is the graph wi was built on, or nil until AttachGraph.
func NewIndex(wi *walkindex.Index, g *graph.Graph) *Index {
	return &Index{wi: wi, g: g}
}

// N returns the vertex count of the graph the index was built on.
func (ix *Index) N() int { return ix.wi.N() }

// Lo and Hi bound the vertices whose walks the index stores — [0, N())
// unless it is one range of a fleet — and Owns reports whether v is one.
func (ix *Index) Lo() int         { return ix.wi.Lo() }
func (ix *Index) Hi() int         { return ix.wi.Hi() }
func (ix *Index) Owns(v int) bool { return ix.wi.Owns(v) }

// full reports whether the index stores every vertex's walks.
func (ix *Index) full() bool { return ix.wi.Lo() == 0 && ix.wi.Hi() == ix.wi.N() }

// needFull is the one refusal of a call that needs all n rows on an index
// that stores fewer.
func (ix *Index) needFull(what string) error {
	if ix.full() {
		return nil
	}
	return fmt.Errorf("query: %s needs a full-range index, this one owns [%d,%d) of [0,%d)", what, ix.wi.Lo(), ix.wi.Hi(), ix.wi.N())
}

// needGraph refuses a call that may have to recompute foreign walks — any
// call on a partial range — with no graph to recompute them from.
func (ix *Index) needGraph(what string) error {
	if ix.g == nil && !ix.full() {
		return fmt.Errorf("query: %s on a partial range needs the source graph (AttachGraph after Load)", what)
	}
	return nil
}

// C returns the damping factor the index was built with.
func (ix *Index) C() float64 { return ix.wi.C() }

// Horizon returns the walk horizon K.
func (ix *Index) Horizon() int { return ix.wi.Horizon() }

// Walks returns the number of fingerprints R per vertex.
func (ix *Index) Walks() int { return ix.wi.Walks() }

// Seed returns the build seed.
func (ix *Index) Seed() int64 { return ix.wi.Seed() }

// Bytes returns the resident size of the walk storage: the live walk
// prefixes, their offsets and any dead arena words an edit batch left.
func (ix *Index) Bytes() int64 { return ix.wi.Bytes() }

// ForestBytes returns the in-memory size of the coalescence order that
// answers queries in output-sensitive time — 6 bytes per stored walk (6·R
// per owned vertex), on top of Bytes.
func (ix *Index) ForestBytes() int64 { return ix.wi.ForestBytes() }

// Graph returns the attached graph, or nil for a loaded index without
// AttachGraph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Generation returns the number of updates applied since build/load.
// Response caches fold it into their keys, so bumping it invalidates every
// pre-update entry at once.
func (ix *Index) Generation() uint64 { return ix.gen.Load() }

// Equal reports whether two indexes answer every query bit-identically
// (same parameters and walk paths; attached graphs and generations are not
// compared).
func (ix *Index) Equal(other *Index) bool { return ix.wi.Equal(other.wi) }

// ErrTooLarge is returned by Update/ApplyEdits/PrepareUpdates when the
// index has too many walks for incremental maintenance (owned vertices
// times R beyond the int32 walk ids a repair passes). It marks a capacity
// limit of this build, not a bad request — servers map it to a 5xx.
var ErrTooLarge = walkindex.ErrTooLarge

// UpdateStats describes one applied edit batch.
type UpdateStats struct {
	// EdgesAdded and EdgesRemoved count the effective edge changes (no-op
	// edits excluded).
	EdgesAdded, EdgesRemoved int
	// DirtyVertices is the number of vertices whose in-neighbor list
	// changed — the repair frontier handed to the walk index.
	DirtyVertices int
	// WalksRepaired is the number of walks whose suffix was recomputed.
	WalksRepaired int
	// Generation is the index generation after this update.
	Generation uint64
}

// Update repairs the index in place after the graph changed into g2, where
// dirty lists every vertex whose in-neighbor list differs (see
// graph.EditSummary.DirtyIn). The repaired index is bit-identical to a
// fresh build of the same range on g2 with the same options; only the
// suffixes of walks through dirty vertices are recomputed, in parallel
// across workers (1 = serial, <1 = all CPUs). g2 replaces the attached
// graph and the generation is bumped. Update must not run concurrently
// with queries. An error wrapping ErrWriteBack means the batch is applied
// but not yet in the index file (see LoadFileMapped).
func (ix *Index) Update(g2 *graph.Graph, dirty []int, workers int) (walksRepaired int, err error) {
	changed, err := ix.wi.Update(g2, dirty, workers)
	if err != nil && !errors.Is(err, ErrWriteBack) {
		return 0, err
	}
	ix.g = g2
	ix.gen.Add(1)
	return changed, err
}

// ApplyEdits applies a batch of edge edits to the attached graph and
// repairs the index incrementally (see Update for the guarantees). It
// requires an attached graph — call AttachGraph first on a loaded index.
// On error the index and graph are unchanged, except for an error wrapping
// ErrWriteBack: the batch is then applied, stats describe it, and only
// the index file lags (see LoadFileMapped). Every range of a fleet must
// receive the same batches; edits are idempotent at the graph layer, so
// re-sending one after a partial broadcast converges rather than corrupts.
func (ix *Index) ApplyEdits(edits []graph.Edit, workers int) (UpdateStats, error) {
	if ix.g == nil {
		return UpdateStats{}, fmt.Errorf("query: ApplyEdits needs the source graph (AttachGraph after Load)")
	}
	g2, sum, err := ix.g.ApplyEdits(edits)
	if err != nil {
		return UpdateStats{}, err
	}
	// A batch of pure no-ops changes nothing: keep the generation (and
	// with it every cached response) instead of invalidating for naught.
	if len(sum.DirtyIn) == 0 && len(sum.DirtyOut) == 0 {
		return UpdateStats{Generation: ix.gen.Load()}, nil
	}
	changed, err := ix.Update(g2, sum.DirtyIn, workers)
	if err != nil && !errors.Is(err, ErrWriteBack) {
		return UpdateStats{}, err
	}
	return UpdateStats{
		EdgesAdded:    sum.Added,
		EdgesRemoved:  sum.Removed,
		DirtyVertices: len(sum.DirtyIn),
		WalksRepaired: changed,
		Generation:    ix.gen.Load(),
	}, err
}

// PrepareUpdates prepares nothing: Update finds the walks an edit affects
// from the graph alone, so there is no update state to build ahead of the
// first batch. It returns the one check Update would fail first, an error
// wrapping ErrTooLarge when the index has too many walks to repair;
// workers is ignored. It is kept for callers written against the earlier
// API, which built an index for updates here.
func (ix *Index) PrepareUpdates(workers int) error {
	return ix.wi.CheckUpdatable()
}

// AttachGraph re-attaches the source graph to a loaded index, enabling
// exact reranking and edits — and, on a partial range, every query. The
// graph must have the same vertex count the index was built from (a
// different graph silently poisons scores, so at least the cheap
// invariant is enforced).
func (ix *Index) AttachGraph(g *graph.Graph) error {
	if g.NumVertices() != ix.wi.N() {
		return fmt.Errorf("query: graph has %d vertices, index was built on %d", g.NumVertices(), ix.wi.N())
	}
	ix.g = g
	return nil
}

// SingleSource estimates s(q, v) for every vertex v and returns the dense
// score vector; entry q is exactly 1. Cancelling ctx (a client gone, a
// server deadline) abandons the sweep at the next chunk boundary and
// returns the context's error; an uncancelled ctx never changes the
// scores.
func (ix *Index) SingleSource(ctx context.Context, q int) ([]float64, error) {
	return ix.SingleSourceInto(ctx, q, nil)
}

// SingleSourceInto is SingleSource writing into a caller-owned buffer:
// dst must have length N() (nil allocates). Servers reuse pooled buffers
// across requests to keep the hot path allocation-free; the returned
// slice is dst. On cancellation dst's contents are unspecified.
func (ix *Index) SingleSourceInto(ctx context.Context, q int, dst []float64) ([]float64, error) {
	if err := ix.needFull("SingleSource"); err != nil {
		return nil, err
	}
	if q < 0 || q >= ix.wi.N() {
		return nil, fmt.Errorf("query: vertex %d out of range [0,%d)", q, ix.wi.N())
	}
	if dst != nil && len(dst) != ix.wi.N() {
		return nil, fmt.Errorf("query: buffer length %d, want %d", len(dst), ix.wi.N())
	}
	return ix.wi.SingleSource(ctx, q, dst)
}

// Pair estimates the single score s(a, b) of any two vertices, owned or not.
func (ix *Index) Pair(a, b int) (float64, error) {
	if err := ix.needGraph("Pair"); err != nil {
		return 0, err
	}
	if err := ix.checkPair(a, b); err != nil {
		return 0, err
	}
	return ix.wi.Pair(ix.g, a, b), nil
}

// checkPair validates the two vertex ids of a pair.
func (ix *Index) checkPair(a, b int) error {
	if n := ix.wi.N(); a < 0 || a >= n || b < 0 || b >= n {
		return fmt.Errorf("query: pair (%d,%d) out of range [0,%d)", a, b, n)
	}
	return nil
}

// TopKOptions tune a TopK call. The zero value (or a nil pointer) means:
// rank by index estimates alone, no reranking.
type TopKOptions struct {
	// Rerank re-scores a candidate pool exactly (truncated SimRank via
	// pruned partial-sums iteration) and re-ranks by the exact scores.
	// Requires an attached graph.
	Rerank bool
	// Candidates is the pool size reranking draws from the estimated
	// ranking; 0 means max(4k, k+16). Larger pools raise recall and cost.
	Candidates int
	// PruneEps stops the exact recursion once a branch's accumulated
	// weight — its maximum possible contribution to the root score —
	// falls below it; 0 means 1e-5. Larger values are faster and less
	// exact; a negative or NaN value is an error.
	PruneEps float64
}

// TopK returns the k vertices most similar to q, excluding q itself, in
// decreasing score order with ties broken by vertex id. With opt.Rerank
// the scores are exact truncated SimRank values for the candidate pool;
// otherwise they are the index estimates. Cancelling ctx abandons the
// call — during the score sweep, between rerank candidates or inside one —
// and returns the context's error.
func (ix *Index) TopK(ctx context.Context, q, k int, opt *TopKOptions) ([]Ranked, error) {
	if n := ix.wi.N(); q < 0 || q >= n {
		return nil, fmt.Errorf("query: vertex %d out of range [0,%d)", q, n)
	}
	k, opt, err := ix.checkTopK(k, opt)
	if err != nil {
		return nil, err
	}
	scores, err := ix.wi.SingleSource(ctx, q, nil)
	if err != nil {
		return nil, err
	}
	return ix.rankFromScores(ctx, scores, q, k, opt)
}

// checkTopK is the argument validation TopK, TopKFromScores and TopKBatch
// share: a full range, k at least 1 and clamped to n-1, nil options
// defaulted, option values in range, and a graph attached when a rerank is
// asked for.
func (ix *Index) checkTopK(k int, opt *TopKOptions) (int, *TopKOptions, error) {
	if err := ix.needFull("TopK"); err != nil {
		return 0, nil, err
	}
	if k < 1 {
		return 0, nil, fmt.Errorf("query: top-k size %d < 1", k)
	}
	k = min(k, ix.wi.N()-1)
	if opt == nil {
		opt = &TopKOptions{}
	}
	if err := opt.validate(); err != nil {
		return 0, nil, err
	}
	if opt.Rerank && ix.g == nil {
		return 0, nil, errRerankNoGraph
	}
	return k, opt, nil
}

// errRerankNoGraph refuses an exact rerank without the graph the scores
// were computed against: checkTopK returns it before any sweep, RankScores
// for callers that rank a row without an Index.
var errRerankNoGraph = errors.New("query: rerank needs the source graph (AttachGraph after Load)")

// validate rejects option values no rerank can honour. A negative or NaN
// PruneEps would make "weight < PruneEps" never true and silently turn the
// pruned recursion into the full exponential expansion.
func (opt *TopKOptions) validate() error {
	if opt.PruneEps < 0 || math.IsNaN(opt.PruneEps) {
		return fmt.Errorf("query: PruneEps %v is negative or NaN", opt.PruneEps)
	}
	return nil
}

// TopKFromScores finishes a TopK query from an already-computed dense
// score row (as returned by SingleSource/SingleSourceInto for the same q):
// candidate selection, then the optional exact rerank. TopK(ctx, q, k, opt)
// and SingleSourceInto + TopKFromScores produce bit-identical results —
// the split exists for servers that obtain the row via a pooled buffer and
// must decide between exact and estimate-only ranking per request (e.g.
// degrading under a deadline) without recomputing the sweep.
func (ix *Index) TopKFromScores(ctx context.Context, scores []float64, q, k int, opt *TopKOptions) ([]Ranked, error) {
	n := ix.wi.N()
	if len(scores) != n {
		return nil, fmt.Errorf("query: score row length %d, want %d", len(scores), n)
	}
	if q < 0 || q >= n {
		return nil, fmt.Errorf("query: vertex %d out of range [0,%d)", q, n)
	}
	k, opt, err := ix.checkTopK(k, opt)
	if err != nil {
		return nil, err
	}
	return ix.rankFromScores(ctx, scores, q, k, opt)
}

// RerankPoolSize reports how many candidates a TopK rerank with this k and
// TopKOptions.Candidates would re-score — the exact pool the rerank uses,
// exported so servers can estimate rerank cost (deadline-aware degradation
// multiplies it by a measured per-candidate cost).
func (ix *Index) RerankPoolSize(k, candidates int) int {
	return RerankPool(ix.wi.N(), k, candidates)
}

// RerankPool is RerankPoolSize as a free function over the vertex count,
// for callers (the scatter/gather router) that size rerank work without
// holding an Index.
func RerankPool(n, k, candidates int) int {
	if k > n-1 {
		k = n - 1
	}
	pool := candidates
	if pool <= 0 {
		pool = max(4*k, k+16)
	}
	if pool > n-1 {
		pool = n - 1
	}
	return max(pool, 0)
}

// rankFromScores turns one dense score row into the final top-k result:
// candidate selection by estimated score, then the optional exact rerank.
// TopK and TopKBatch both end here — sharing the code is what makes the
// batched path bit-identical to independent calls by construction. Callers
// validate q/k/opt with checkTopK; what is left to fail is ctx, which the
// rerank polls between candidates and inside them (see exact.go).
func (ix *Index) rankFromScores(ctx context.Context, scores []float64, q, k int, opt *TopKOptions) ([]Ranked, error) {
	return RankScores(ctx, ix.g, ix.wi.C(), ix.wi.Horizon(), scores, q, k, opt)
}

// RankScores finishes a top-k query from a dense score row without an
// Index: candidate selection by estimated score, then the optional exact
// rerank against g with damping factor c and horizon K. It is the exact
// code path TopK ends in, exported for the scatter/gather router, which
// assembles the dense row from per-shard partials and must rank it — and
// rerank the globally merged candidate pool in ONE place, because the
// exact scorer's memoization is accuracy-preserving but not bit-stable
// across visiting orders, so reranking per shard and merging would not
// reproduce the single-node scores.
//
// Callers validate q/k (k already clamped to at most n-1) and, when
// opt.Rerank is set, pass the graph the scores were computed against. The
// errors are an option value out of range (see TopKOptions), a rerank
// without a graph, a graph or horizon beyond what the exact scorer's memo
// keys hold, and ctx cancellation.
func RankScores(ctx context.Context, g *graph.Graph, c float64, horizon int, scores []float64, q, k int, opt *TopKOptions) ([]Ranked, error) {
	return rankWith(ctx, g, c, horizon, len(scores), q, k, opt, func(pool int) []Ranked {
		return topByScore(scores, q, pool)
	})
}

// RankSparse is RankScores over a sparse row of an n-vertex graph: the same
// candidates (a row with fewer entries than the pool is padded with
// zero-score vertices in ascending id order, exactly what the dense
// selection returns), the same rerank, the same result — without scanning n.
func RankSparse(ctx context.Context, g *graph.Graph, c float64, horizon, n int, row *sparserow.Row, q, k int, opt *TopKOptions) ([]Ranked, error) {
	return rankWith(ctx, g, c, horizon, n, q, k, opt, func(pool int) []Ranked {
		return row.Top(pool, q, n)
	})
}

// rankWith is the tail RankScores and RankSparse share: size the candidate
// pool, let top select it from the row, and exactly re-score it when asked.
func rankWith(ctx context.Context, g *graph.Graph, c float64, horizon, n, q, k int, opt *TopKOptions, top func(pool int) []Ranked) ([]Ranked, error) {
	if opt == nil {
		opt = &TopKOptions{}
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	pool := k
	if opt.Rerank {
		if g == nil {
			return nil, errRerankNoGraph
		}
		pool = RerankPool(n, k, opt.Candidates)
	}
	cands := top(pool)

	if opt.Rerank {
		pruneEps := opt.PruneEps
		if pruneEps == 0 {
			pruneEps = 1e-5
		}
		// One memo per call, never shared between calls: its weight-bounded
		// reuse is accuracy-preserving but not bit-stable across visiting
		// orders, so a memo that outlived the call would make a score depend
		// on what was asked before it. What is pooled is the table's memory,
		// not its contents.
		ex, err := newExactScorer(ctx, g, c, horizon, pruneEps)
		if err != nil {
			return nil, err
		}
		defer ex.release()
		check := par.NewCancelChecker(ctx, 1)
		for i := range cands {
			if err := check.Stop(); err != nil {
				return nil, err
			}
			if cands[i].Score, err = ex.pair(q, cands[i].Vertex); err != nil {
				return nil, err
			}
		}
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].Score != cands[j].Score {
				return cands[i].Score > cands[j].Score
			}
			return cands[i].Vertex < cands[j].Vertex
		})
	}
	if k > len(cands) {
		k = len(cands)
	}
	return cands[:k], nil
}

// topByScore selects the top-m vertices by score, excluding skip, in
// decreasing score order with ties broken by vertex id. It keeps a small
// sorted tail instead of sorting all n entries: O(n log m).
func topByScore(scores []float64, skip, m int) []Ranked {
	out := make([]Ranked, 0, max(m, 0))
	if m <= 0 {
		return out
	}
	for v, s := range scores {
		if v == skip {
			continue
		}
		if len(out) == m {
			last := out[m-1]
			if s < last.Score || (s == last.Score && v > last.Vertex) {
				continue
			}
			out = out[:m-1]
		}
		// Insert keeping (score desc, id asc) order.
		i := sort.Search(len(out), func(i int) bool {
			return out[i].Score < s || (out[i].Score == s && out[i].Vertex > v)
		})
		out = append(out, Ranked{})
		copy(out[i+1:], out[i:])
		out[i] = Ranked{Vertex: v, Score: s}
	}
	return out
}

// Save writes the index (not the graph) to w in the versioned binary
// walk-index format; see oipsr/internal/walkindex for the layout. It
// validates the index against the load-side guards first and refuses
// (walkindex.ErrFormatLimits) to write an unloadable file. An index file
// holds the full range; shard files are shard.BuildAll's.
func (ix *Index) Save(w io.Writer) error {
	if err := ix.needFull("Save"); err != nil {
		return err
	}
	return ix.wi.Save(w, walkindex.IndexFile)
}

// Load reads an index written by Save, SaveFile or BuildFileStreaming,
// decoding it into memory. The result answers SingleSource, Pair, and
// estimate-only TopK immediately; call AttachGraph to enable reranking.
// Load rejects truncated files, corrupted payloads (CRC), trailing data,
// shard files, and format-version mismatches.
func Load(r io.Reader) (*Index, error) {
	wi, err := walkindex.Load(r, walkindex.IndexFile)
	if err != nil {
		return nil, err
	}
	return NewIndex(wi, nil), nil
}

// SaveFile writes the index to path durably and atomically: the payload is
// written to a sibling temp file, fsynced, renamed over path, and the
// directory is fsynced so the rename itself survives a crash. A crash at
// any point leaves either the old file or the complete new one — never a
// truncated or empty index.
func (ix *Index) SaveFile(path string) error {
	return atomicio.WriteFile(path, ix.Save)
}

// LoadFile reads an index from path.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
