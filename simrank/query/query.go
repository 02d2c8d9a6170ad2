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
	// ApplyEdits work on, what a partial range recomputes foreign walks
	// from, and what a loaded index sorts its coalescence order from. Nil
	// after a load until AttachGraph.
	g *graph.Graph
	// gen counts applied updates; cache layers fold it into their keys so
	// pre-update responses can never be served post-update.
	gen atomic.Uint64
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
	return &Index{wi: wi, g: g}, nil
}

// NewIndex is the ranged constructor: the handle over a walk index of any
// vertex range. g is the graph wi's walks were taken on, attached here as
// AttachGraph attaches it — checked, and the coalescence order sorted from
// it if wi has none yet — or nil until AttachGraph.
func NewIndex(wi *walkindex.Index, g *graph.Graph) (*Index, error) {
	ix := &Index{wi: wi}
	if g == nil {
		return ix, nil
	}
	if err := ix.AttachGraph(g); err != nil {
		return nil, err
	}
	return ix, nil
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

// needGraph refuses a call that reads the coalescence order — every score
// row — or repairs it, on a loaded index that has no graph yet: the order
// is sorted from the graph when AttachGraph gives it one. A handle has its
// graph only from BuildIndex, NewIndex or AttachGraph, each of which leaves
// the order in place, so ix.g is the one gate.
func (ix *Index) needGraph(what string) error {
	if ix.g == nil {
		return fmt.Errorf("query: %s needs the source graph (AttachGraph after Load)", what)
	}
	return nil
}

// needRecompute refuses a call that may have to recompute foreign walks —
// any call on a partial range — with no graph to recompute them from.
func (ix *Index) needRecompute(what string) error {
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
// answers queries in output-sensitive time — the order, its meeting
// steps and key heads, 10 bytes a slot with one empty slot after every 20
// walkers, and its inverse, 4 bytes per stored walk (14.5·R per owned
// vertex), on top of Bytes.
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

// ErrGraphMismatch is returned by AttachGraph for a graph the index's walks
// were not taken on.
var ErrGraphMismatch = walkindex.ErrGraphMismatch

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
// graph and the generation is bumped. A loaded index needs its graph
// attached first (AttachGraph). Update must not run concurrently with
// queries. An error wrapping ErrWriteBack means the batch is applied but
// not yet in the index file (see LoadFileMapped).
func (ix *Index) Update(g2 *graph.Graph, dirty []int, workers int) (walksRepaired int, err error) {
	if err := ix.needGraph("Update"); err != nil {
		return 0, err
	}
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
	if err := ix.needGraph("ApplyEdits"); err != nil {
		return UpdateStats{}, err
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
// score rows — SingleSource, TopK and every batch — exact reranking and
// edits: the coalescence order that answers them is sorted from g here, on
// all CPUs. g must be the graph the index's walks were taken on (or
// repaired to). A graph with another vertex count is refused, and so is
// one on which any stored walk would be taken otherwise — the graph before
// an edit batch made durable beside a LoadFileMapped file, for one — since the
// order sorted from it would silently disagree with the rows: the error
// wraps ErrGraphMismatch.
func (ix *Index) AttachGraph(g *graph.Graph) error {
	if err := ix.wi.AttachGraph(g, 0); err != nil {
		return err
	}
	ix.g = g
	return nil
}

// SingleSource estimates s(q, v) for every vertex v and returns the dense
// score vector; entry q is exactly 1. It is q's sparse row (SparseRows)
// written out. Cancelling ctx (a client gone, a server deadline) abandons
// the query at the next fingerprint and returns the context's error; an
// uncancelled ctx never changes the scores.
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
	if err := ix.needGraph("SingleSource"); err != nil {
		return nil, err
	}
	if q < 0 || q >= ix.wi.N() {
		return nil, fmt.Errorf("query: vertex %d out of range [0,%d)", q, ix.wi.N())
	}
	if dst != nil && len(dst) != ix.wi.N() {
		return nil, fmt.Errorf("query: buffer length %d, want %d", len(dst), ix.wi.N())
	}
	row, err := ix.row(ctx, q)
	if err != nil {
		return nil, err
	}
	defer sparserow.Release(row)
	if dst == nil {
		dst = make([]float64, ix.wi.N())
	}
	row.Densify(dst, 0)
	return dst, nil
}

// row returns q's walk-estimate row over the owned range; the caller
// releases it.
func (ix *Index) row(ctx context.Context, q int) (*sparserow.Row, error) {
	rows, err := ix.wi.SparseRows(ctx, ix.g, []int{q}, 1)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// Pair estimates the single score s(a, b) of any two vertices, owned or not.
func (ix *Index) Pair(a, b int) (float64, error) {
	if err := ix.needRecompute("Pair"); err != nil {
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
	if err := ix.needGraph("TopK"); err != nil {
		return nil, err
	}
	row, err := ix.row(ctx, q)
	if err != nil {
		return nil, err
	}
	defer sparserow.Release(row)
	return ix.rank(ctx, row, q, k, opt)
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
// were computed against: checkTopK returns it before any sweep, RankSparse
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
// the split exists for callers that hold the row already and decide
// between exact and estimate-only ranking afterwards, without recomputing
// it. The row enters as its entries other than +0 (sparserow's Sparsify)
// and is ranked as every other row is.
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
	row := sparserow.Get()
	defer sparserow.Release(row)
	row.Sparsify(scores)
	return ix.rank(ctx, row, q, k, opt)
}

// RerankPool reports how many candidates a top-k rerank on an n-vertex
// graph with this k and TopKOptions.Candidates re-scores — the exact pool
// the rerank uses, exported so servers can estimate rerank cost
// (deadline-aware degradation multiplies it by a measured per-candidate
// cost).
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

// rank finishes one top-k query from q's row: candidate selection, then the
// optional exact rerank. TopK, TopKBatch and TopKFromScores all end here —
// sharing the code is what makes the batched path bit-identical to
// independent calls by construction. Callers validate q/k/opt with
// checkTopK; what is left to fail is ctx, which the rerank polls between
// candidates and inside them (see exact.go).
func (ix *Index) rank(ctx context.Context, row *sparserow.Row, q, k int, opt *TopKOptions) ([]Ranked, error) {
	return RankSparse(ctx, ix.g, ix.wi.C(), ix.wi.Horizon(), ix.wi.N(), row, q, k, opt)
}

// RankSparse finishes a top-k query from the score row of q on an n-vertex
// graph, without an Index: candidate selection by estimated score, then
// the optional exact rerank against g with damping factor c and horizon K.
// Every top-k answer ends here — the library's and simrankd's over either
// row source. The router assembles the row from per-shard runs and must
// rank it, and rerank the globally merged candidate pool, in ONE place:
// the exact scorer's memoization is accuracy-preserving but not bit-stable
// across visiting orders, so reranking per shard and merging would not
// reproduce the single-node scores.
//
// The candidates are the top of the dense vector the row stands for,
// selected without scanning n: a row with fewer entries than the pool is
// padded with zero-score vertices in ascending id order (sparserow's Top).
// Callers validate q/k (k already clamped to at most n-1) and, when
// opt.Rerank is set, pass the graph the scores were computed against. The
// errors are an option value out of range (see TopKOptions), a rerank
// without a graph, a graph or horizon beyond what the exact scorer's memo
// keys hold, and ctx cancellation.
func RankSparse(ctx context.Context, g *graph.Graph, c float64, horizon, n int, row *sparserow.Row, q, k int, opt *TopKOptions) ([]Ranked, error) {
	if opt == nil {
		opt = &TopKOptions{}
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if !opt.Rerank {
		return row.Top(k, q, n), nil
	}
	if g == nil {
		return nil, errRerankNoGraph
	}
	cands := row.Top(RerankPool(n, k, opt.Candidates), q, n)
	if err := rerank(ctx, g, c, horizon, q, cands, opt.PruneEps); err != nil {
		return nil, err
	}
	return cands[:min(k, len(cands))], nil
}

// rerank re-scores every candidate exactly against q and re-sorts them by
// (score desc, vertex asc); pruneEps 0 means 1e-5.
func rerank(ctx context.Context, g *graph.Graph, c float64, horizon, q int, cands []Ranked, pruneEps float64) error {
	if pruneEps == 0 {
		pruneEps = 1e-5
	}
	// One memo per call, never shared between calls: its weight-bounded
	// reuse is accuracy-preserving but not bit-stable across visiting
	// orders, so a memo that outlived the call would make a score depend on
	// what was asked before it. What is pooled is the table's memory, not
	// its contents.
	ex, err := newExactScorer(ctx, g, c, horizon, pruneEps)
	if err != nil {
		return err
	}
	defer ex.release()
	check := par.NewCancelChecker(ctx, 1)
	for i := range cands {
		if err := check.Stop(); err != nil {
			return err
		}
		if cands[i].Score, err = ex.pair(q, cands[i].Vertex); err != nil {
			return err
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Vertex < cands[j].Vertex
	})
	return nil
}

// Save writes the index (not the graph) to w in the versioned binary
// walk-index format; see oipsr/internal/walkindex for the layout. It
// validates the index against the load-side guards first and refuses
// (walkindex.ErrFormatLimits) to write an unloadable file. An index file
// holds the full range: a ranged index is built from the graph, never
// saved.
func (ix *Index) Save(w io.Writer) error {
	if err := ix.needFull("Save"); err != nil {
		return err
	}
	return ix.wi.Save(w)
}

// Load reads an index written by Save, SaveFile or BuildFileStreaming,
// decoding it into memory. The result answers Pair and the joins at once;
// SingleSource, TopK, the batches, reranks and edits need AttachGraph
// first, which sorts the coalescence order from the graph. Load rejects
// truncated files, corrupted payloads (CRC), trailing data, files of
// another kind (the retired shard file included: ErrBadMagic), and
// format-version mismatches.
func Load(r io.Reader) (*Index, error) {
	wi, err := walkindex.Load(r)
	if err != nil {
		return nil, err
	}
	return NewIndex(wi, nil)
}

// SaveFile writes the index to path durably and atomically: the file
// Save writes goes straight to a sibling temp file, never whole in memory,
// which is fsynced, renamed over path, and the directory is fsynced so the
// rename itself survives a crash. A crash at any point leaves either the
// old file or the complete new one — never a truncated or empty index.
// An edit log beside the old file (see LoadFileMapped) is removed before
// the new file is published.
func (ix *Index) SaveFile(path string) error {
	if err := ix.needFull("Save"); err != nil {
		return err
	}
	return walkindex.PublishFile(path, func(f *os.File) error { return ix.wi.SaveAt(f) })
}

// LoadFile reads an index from path as Load does, then replays the edit
// log an index from LoadFileMapped keeps beside the file, if one names
// it: the result is the index as of that index's last durable batch.
func LoadFile(path string) (*Index, error) {
	wi, err := walkindex.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return NewIndex(wi, nil)
}
