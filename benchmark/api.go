package main

// api.go is the only file of the benchmark that imports the repository's
// packages. Every call into the system under test goes through the small
// wrappers below, so the surface the benchmark holds later changes to is
// readable in one place (benchmark/README.md lists it symbol by symbol,
// and TestOnlyAdapterImportsRepo keeps the other files honest).

import (
	"context"
	"net/http"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/partition"
	"oipsr/internal/simrankd"
	"oipsr/simrank"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// ---- graph, graph/gen ----

type graphT struct{ g *graph.Graph }

func webGraph(n, avgDeg int, seed int64) graphT {
	return graphT{gen.WebGraph(n, avgDeg, seed)}
}

func citationGraph(n, avgDeg int, seed int64) graphT {
	return graphT{gen.CitationGraph(n, avgDeg, seed)}
}

func graphFromEdges(n int, edges [][2]int32) (graphT, error) {
	pairs := make([][2]int, len(edges))
	for i, e := range edges {
		pairs[i] = [2]int{int(e[0]), int(e[1])}
	}
	g, err := graph.FromEdges(n, pairs)
	return graphT{g}, err
}

func (g graphT) n() int { return g.g.NumVertices() }
func (g graphT) m() int { return g.g.NumEdges() }

// edges lists every edge u->v in the graph's own iteration order.
func (g graphT) edges() [][2]int32 {
	out := make([][2]int32, 0, g.g.NumEdges())
	g.g.Edges(func(u, v int) bool {
		out = append(out, [2]int32{int32(u), int32(v)})
		return true
	})
	return out
}

func toGraphEdits(batch []edit) []graph.Edit {
	out := make([]graph.Edit, len(batch))
	for i, e := range batch {
		op := graph.EditAdd
		if e.remove {
			op = graph.EditRemove
		}
		out[i] = graph.Edit{Op: op, U: int(e.u), V: int(e.v)}
	}
	return out
}

// applyEdits is graph.ApplyEdits: the edited graph and the vertices whose
// in-neighbour list changed.
func (g graphT) applyEdits(batch []edit) (graphT, []int, error) {
	g2, sum, err := g.g.ApplyEdits(toGraphEdits(batch))
	return graphT{g2}, sum.DirtyIn, err
}

// ---- internal/partition ----

// buildPlan is the DMST-Reduce preprocessing of the OIP engines, called
// directly to cross-check the plan time they report.
func buildPlan(g graphT) error {
	_, err := partition.BuildPlan(g.g, partition.Options{})
	return err
}

// ---- simrank (the sweep engines: partition, core, dsr, psum, simmat) ----

type scoresT struct{ s *simrank.Scores }

// sweepStats is the part of simrank.Stats the benchmark reads.
type sweepStats struct {
	iterations           int
	plan, compute        time.Duration
	innerAdds, outerAdds int64
	auxBytes, stateBytes int64
	shareRatio, avgDiff  float64
}

// computeAllPairs runs one all-pairs engine ("oip-sr", "oip-dsr",
// "psum-sr") at the paper's defaults, C = 0.6 and eps = 1e-3.
func computeAllPairs(g graphT, algo string, workers int) (scoresT, sweepStats, error) {
	s, st, err := simrank.Compute(g.g, simrank.Options{Algorithm: simrank.Algorithm(algo), Workers: workers})
	if err != nil {
		return scoresT{}, sweepStats{}, err
	}
	return scoresT{s}, sweepStats{
		iterations: st.Iterations,
		plan:       st.PlanTime, compute: st.ComputeTime,
		innerAdds: st.InnerAdds, outerAdds: st.OuterAdds,
		auxBytes: st.AuxBytes, stateBytes: st.StateBytes,
		shareRatio: st.ShareRatio, avgDiff: st.AvgDiff,
	}, nil
}

func (s scoresT) maxDiff(o scoresT) float64 { return s.s.MaxDiff(o.s) }

func (s scoresT) topK(q, k int) []int {
	return rankedVertices(s.s.TopK(q, k), func(r simrank.Ranked) int { return r.Vertex })
}

// ---- simrank/query (walkindex, atomicio underneath) ----

type indexT struct{ ix *query.Index }

// indexOptions are the walk-index build parameters every index workload
// uses: R = 100 walks, horizon from eps = 1e-3, C = 0.6.
func indexOptions(seed int64, workers int) query.Options {
	return query.Options{Walks: 100, Seed: seed, Workers: workers}
}

func buildIndex(g graphT, seed int64, workers int) (indexT, error) {
	ix, err := query.BuildIndex(g.g, indexOptions(seed, workers))
	return indexT{ix}, err
}

// buildIndexFile is query.BuildFileStreaming: a format-v2 file written
// under a byte budget, never materialized in memory.
func buildIndexFile(g graphT, seed int64, workers int, path string, budget int64) error {
	_, err := query.BuildFileStreaming(g.g, indexOptions(seed, workers), path, budget)
	return err
}

// openMapped is query.LoadFileMapped with default options (32-block LRU,
// prefetch depth 8).
func openMapped(path string) (indexT, error) {
	ix, err := query.LoadFileMapped(path, query.MappedOptions{})
	return indexT{ix}, err
}

func loadIndexFile(path string) (indexT, error) {
	ix, err := query.LoadFile(path)
	return indexT{ix}, err
}

func (x indexT) n() int                           { return x.ix.N() }
func (x indexT) bytes() int64                     { return x.ix.Bytes() }
func (x indexT) graph() graphT                    { return graphT{x.ix.Graph()} }
func (x indexT) attachGraph(g graphT) error       { return x.ix.AttachGraph(g.g) }
func (x indexT) prepareUpdates(workers int) error { return x.ix.PrepareUpdates(workers) }
func (x indexT) equal(o indexT) bool              { return x.ix.Equal(o.ix) }
func (x indexT) close() error                     { return x.ix.Close() }

func (x indexT) singleSourceInto(ctx context.Context, q int, dst []float64) ([]float64, error) {
	return x.ix.SingleSourceInto(ctx, q, dst)
}

func (x indexT) multiSource(ctx context.Context, sources []int, workers int) ([][]float64, error) {
	return x.ix.MultiSource(ctx, sources, workers)
}

// topKFromScores ranks an already-swept score row; rerank re-scores the
// default candidate pool exactly, as GET /v1/topk?rerank=1 does.
func (x indexT) topKFromScores(ctx context.Context, scores []float64, q, k int, rerank bool) ([]int, error) {
	rs, err := x.ix.TopKFromScores(ctx, scores, q, k, &query.TopKOptions{Rerank: rerank})
	return rankedVertices(rs, func(r query.Ranked) int { return r.Vertex }), err
}

// referenceTopK is the interim precision reference: exact rerank of the
// 100 best walk estimates.
func (x indexT) referenceTopK(ctx context.Context, q, k int) ([]int, error) {
	rs, err := x.ix.TopK(ctx, q, k, &query.TopKOptions{Rerank: true, Candidates: 100})
	return rankedVertices(rs, func(r query.Ranked) int { return r.Vertex }), err
}

// applyEdits is Index.ApplyEdits: graph edit, walk repair and, on a
// mapped index, the copy-on-write rewrite of the backing file.
func (x indexT) applyEdits(batch []edit, workers int) (walksRepaired int, err error) {
	st, err := x.ix.ApplyEdits(toGraphEdits(batch), workers)
	return st.WalksRepaired, err
}

// update is Index.Update: the walk repair alone, given the edited graph.
func (x indexT) update(g2 graphT, dirtyIn []int, workers int) (walksRepaired int, err error) {
	return x.ix.Update(g2.g, dirtyIn, workers)
}

// ---- simrank/shard ----

type shardT struct{ sh *shard.Shard }

func planShards(n, shards int) ([][2]int, error) {
	rs, err := shard.Plan(n, shards)
	out := make([][2]int, len(rs))
	for i, r := range rs {
		out[i] = [2]int{r.Lo, r.Hi}
	}
	return out, err
}

func buildShard(g graphT, seed int64, workers, lo, hi int) (shardT, error) {
	sh, err := shard.Build(g.g, indexOptions(seed, workers), lo, hi)
	return shardT{sh}, err
}

func (s shardT) bytes() int64 { return s.sh.Bytes() }

func (s shardT) partialScores(ctx context.Context, sources []int, workers int) ([][]float64, error) {
	return s.sh.PartialScores(ctx, sources, workers)
}

// ---- internal/simrankd ----

// serverConfig is the part of simrankd.Config the benchmark sets; every
// other field (admission, batch caps) stays at its default.
type serverConfig struct {
	cacheSize      int // 0 = default 1024 entries, -1 = disabled
	workers        int
	requestTimeout time.Duration
}

func (c serverConfig) config() simrankd.Config {
	return simrankd.Config{CacheSize: c.cacheSize, Workers: c.workers, RequestTimeout: c.requestTimeout}
}

func newServer(ix indexT, c serverConfig) http.Handler {
	return simrankd.NewServer(ix.ix, c.config())
}

func newShardServer(sh shardT, c serverConfig) (http.Handler, error) {
	return simrankd.NewShardServer(sh.sh, c.config())
}

func newRouter(g graphT, backends []string, c serverConfig) (http.Handler, error) {
	return simrankd.NewRouter(g.g, backends, simrankd.RouterConfig{Config: c.config()})
}
