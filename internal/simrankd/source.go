package simrankd

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"oipsr/graph"
	"oipsr/internal/sparserow"
	"oipsr/simrank/query"
)

// rowSource is everything the /v1 front end (Server) does not do itself:
// what genuinely differs between a node that holds the walk rows and one
// that fronts a fleet of shards holding them. Parameter parsing, the
// response cache and its keys, the degrade decisions, ranking, encoding,
// streaming and counting sit above it, once; the shard wire protocol
// (/shard/v1/*, the binary score leg of legwire.go) sits below it, in
// fleetSource alone.
// There are exactly two implementations: localSource and fleetSource.
//
// The front end calls every method with serving.mu held — applyEdits under
// the write lock, the rest under the read lock — and validates vertex ids
// against dims first.
type rowSource interface {
	// rows returns the walk-estimate row of every source, in order, as its
	// non-zero entries — the source's own (q, 1) among them. The rows are
	// pooled and the caller's to hand back (sparserow.Release) once nothing
	// points into them. degraded reports that some vertex range is missing
	// from the rows (it reads 0 there) or was served at a stale generation:
	// the rows are then not the current answer and must not be cached.
	rows(ctx context.Context, sources []int) (rows []*sparserow.Row, degraded bool, err error)

	// join returns the k best pairs scoring at least threshold, with the
	// same degraded flag.
	join(ctx context.Context, k int, threshold float64, maxCand int) (pairs []query.JoinPair, degraded bool, err error)

	// applyEdits applies one batch and reports what it did (all of the
	// /v1/edges response but the timing). A *statusError picks its own
	// status; query.ErrTooLarge is a 500; anything else is the client's 400.
	// The generation tag may move even when an error is returned (a
	// broadcast that reached part of a fleet).
	applyEdits(ctx context.Context, edits []graph.Edit) (edgesResponse, error)

	// exactRow solves row q of the converged SimRank matrix over the
	// current graph into dst (length n). steady is false when the call also
	// paid the one-time diagonal solve, which the per-query cost model must
	// not see.
	exactRow(ctx context.Context, q int, dst []float64) (row []float64, steady bool, err error)

	// dims returns what never changes: the vertex count, the damping factor
	// and the walk horizon.
	dims() (n int, c float64, horizon int)
	// graph returns the current graph (nil on a loaded index nobody
	// attached one to): what an exact rerank scores against.
	graph() *graph.Graph
	// genTag is the generation part of every cache key: it changes whenever
	// an applied batch changes an answer, so pre-update bodies become
	// unreachable at once.
	genTag() string

	// healthz returns the mode's /healthz body.
	healthz(uptimeSecs float64) any
	// writeMetrics emits the mode's own /metrics lines.
	writeMetrics(w io.Writer)
}

// localSource answers from a walk index held in this process: the serve
// mode of simrankd.
type localSource struct {
	idx     *query.Index
	workers int
	// tag is the index generation in decimal, re-rendered when a batch
	// lands rather than per request.
	tag string
}

func newLocalSource(idx *query.Index, workers int) *localSource {
	return &localSource{idx: idx, workers: workers, tag: strconv.FormatUint(idx.Generation(), 10)}
}

func (l *localSource) rows(ctx context.Context, sources []int) ([]*sparserow.Row, bool, error) {
	rows, err := l.idx.SparseRows(ctx, sources, l.workers)
	return rows, false, err
}

func (l *localSource) join(ctx context.Context, k int, threshold float64, maxCand int) ([]query.JoinPair, bool, error) {
	pairs, err := l.idx.Join(ctx, k, threshold, &query.JoinOptions{MaxCandidates: maxCand, Workers: l.workers})
	return pairs, false, err
}

func (l *localSource) applyEdits(_ context.Context, edits []graph.Edit) (edgesResponse, error) {
	resp, err := applyLocalEdits(l.idx, edits, l.workers)
	if err == nil {
		l.tag = strconv.FormatUint(resp.Generation, 10)
	}
	return resp, err
}

func (l *localSource) exactRow(ctx context.Context, q int, dst []float64) ([]float64, bool, error) {
	_, prebuilt := l.idx.ExactStats()
	row, err := l.idx.ExactSingleSource(ctx, q, dst)
	return row, prebuilt, err
}

func (l *localSource) dims() (int, float64, int) { return l.idx.N(), l.idx.C(), l.idx.Horizon() }
func (l *localSource) graph() *graph.Graph       { return l.idx.Graph() }
func (l *localSource) genTag() string            { return l.tag }

type healthzResponse struct {
	Status     string  `json:"status"`
	Vertices   int     `json:"vertices"`
	Walks      int     `json:"walks"`
	Horizon    int     `json:"horizon"`
	C          float64 `json:"c"`
	IndexBytes int64   `json:"index_bytes"`
	// ForestBytes is the coalescence order the index answers from,
	// derived state on top of IndexBytes.
	ForestBytes int64 `json:"index_forest_bytes"`
	// Backend is how the walk rows are kept: "dense" in memory only,
	// "write-back" when edit batches are also written to the index file
	// (-index-mmap).
	Backend    string  `json:"backend"`
	Generation uint64  `json:"generation"`
	UptimeSecs float64 `json:"uptime_seconds"`
}

func (l *localSource) healthz(uptimeSecs float64) any {
	return healthzResponse{
		Status:      "ok",
		Vertices:    l.idx.N(),
		Walks:       l.idx.Walks(),
		Horizon:     l.idx.Horizon(),
		C:           l.idx.C(),
		IndexBytes:  l.idx.Bytes(),
		ForestBytes: l.idx.ForestBytes(),
		Backend:     l.idx.Backend(),
		Generation:  l.idx.Generation(),
		UptimeSecs:  uptimeSecs,
	}
}

func (l *localSource) writeMetrics(w io.Writer) {
	fmt.Fprintf(w, "simrankd_index_generation %d\n", l.idx.Generation())
	writeIndexSizeMetrics(w, l.idx)
}

// writeIndexSizeMetrics emits the two resident-size gauges of a process
// that holds walk rows (serve and shard mode): the path storage and the
// coalescence order derived on top of it.
func writeIndexSizeMetrics(w io.Writer, idx *query.Index) {
	fmt.Fprintf(w, "simrankd_index_bytes %d\n", idx.Bytes())
	fmt.Fprintf(w, "simrankd_index_forest_bytes %d\n", idx.ForestBytes())
}
