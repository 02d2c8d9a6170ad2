// Package simrankd implements the simrankd HTTP server: the /v1 query
// endpoints over a persistent walk index (see oipsr/simrank/query), the
// health probe, and Prometheus-style /metrics. cmd/simrankd wires it to
// flags and a listener; the contract benchmark (benchmark/) drives it
// in-process under load — the package exists so both share one server.
//
// The server is built to stay predictable under overload:
//
//   - every request runs under a context with a deadline (the configured
//     RequestTimeout, shortened per request by ?timeout_ms=), and the
//     query layer aborts at chunk boundaries when it expires;
//   - a concurrency limiter admits at most MaxInflight requests into the
//     handlers with a bounded wait queue of QueueDepth behind them, and
//     sheds beyond that with 429 + Retry-After instead of queueing
//     unboundedly;
//   - exact-rerank top-k requests degrade to raw walk estimates (marked
//     with a "degraded" field and the X-Simrank-Degraded header) when the
//     remaining deadline budget cannot afford the rerank.
package simrankd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oipsr/graph"
	"oipsr/internal/lru"
	"oipsr/internal/sparserow"
	"oipsr/simrank/query"
)

// DefaultMaxBatch caps the sources of one /v1/batch request unless
// Config.MaxBatch overrides it.
const DefaultMaxBatch = 1024

// DefaultMaxInflight is the concurrency limit when Config.MaxInflight is
// zero: enough parallelism to keep every core busy with headroom for
// cache hits, small enough that n concurrent sweeps cannot pile up
// unbounded memory.
func DefaultMaxInflight() int { return 4 * runtime.GOMAXPROCS(0) }

// Config configures a Server. The zero value serves with an LRU of
// DefaultCacheSize, all CPUs, default batch/join caps, DefaultMaxInflight
// concurrency with a 2x wait queue, and no server-imposed deadline.
type Config struct {
	// CacheSize is the LRU response-cache capacity in entries; 0 means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// Workers sets the worker pool for index repair and batch queries
	// (0 = all CPUs, 1 = serial).
	Workers int
	// MaxBatch caps the sources of one /v1/batch request; 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// JoinMaxCandidates caps the candidate pairs a /v1/join may
	// enumerate; 0 means query.DefaultMaxCandidates.
	JoinMaxCandidates int
	// MaxInflight is the number of /v1 requests allowed to execute
	// concurrently; 0 means DefaultMaxInflight.
	MaxInflight int
	// QueueDepth is the number of requests allowed to wait for an
	// execution slot once MaxInflight are running; beyond it requests are
	// shed with 429. 0 means 2*MaxInflight; negative means no queue
	// (shed as soon as the limiter is full).
	QueueDepth int
	// RequestTimeout is the deadline every /v1 request runs under, and
	// the upper bound a ?timeout_ms= override may ask for. 0 means no
	// server-imposed deadline (overrides still apply).
	RequestTimeout time.Duration
}

// DefaultCacheSize is the response-cache capacity when Config.CacheSize
// is zero.
const DefaultCacheSize = 1024

// Server is the simrankd /v1 front end: the public query surface —
// single_source, topk, batch, join, edges — written once over a rowSource.
// NewServer puts it over a walk index held in this process, NewRouter over
// a fleet of shard backends; everything a client can observe except speed
// is the same code either way, so a client cannot tell the two apart by
// the bytes of a healthy response.
//
// Concurrency: see serving.mu. Responses are cached in an LRU keyed by the
// source's generation tag, so an applied edit batch makes every earlier
// body unreachable at once.
type Server struct {
	// serving carries the lock, limiter, deadlines, degradation model,
	// error encoding, /v1/edges and the shared counters (see serving.go).
	serving

	src     rowSource
	workers int
	cache   *lru.Cache[string, []byte]
	mux     *http.ServeMux

	// n, c and horizon are the source's dims, which never change (edge
	// edits repair walks, they don't add vertices).
	n       int
	c       float64
	horizon int

	// scorePool recycles dense score rows of length n: what an exact
	// (linearized) solve fills, and what a sparse walk row is written out
	// into for the one body that is dense by definition.
	scorePool sync.Pool

	// Per-endpoint request counters exported on /metrics.
	reqSingleSource atomic.Int64
	reqTopK         atomic.Int64
	reqBatch        atomic.Int64
	reqJoin         atomic.Int64

	batchItems      atomic.Int64
	batchItemErrors atomic.Int64
}

// NewServer returns a handler serving queries from idx under cfg.
func NewServer(idx *query.Index, cfg Config) *Server {
	return newFrontEnd(newLocalSource(idx, cfg.Workers), "serve", cfg)
}

// newFrontEnd wires the /v1 surface over src; mode labels the build-info
// metric ("serve" or "router").
func newFrontEnd(src rowSource, mode string, cfg Config) *Server {
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	s := &Server{
		src:     src,
		workers: cfg.Workers,
		cache:   lru.New[string, []byte](cacheSize),
		mux:     http.NewServeMux(),
	}
	s.initServing(cfg)
	s.n, s.c, s.horizon = src.dims()
	n := s.n
	s.scorePool.New = func() any { b := make([]float64, n); return &b }

	s.mux.HandleFunc("/v1/single_source", s.limited(s.handleSingleSource))
	s.mux.HandleFunc("/v1/topk", s.limited(s.handleTopK))
	s.mux.HandleFunc("/v1/batch", s.limited(s.handleBatch))
	s.mux.HandleFunc("/v1/join", s.limited(s.handleJoin))
	s.mux.HandleFunc("/v1/edges", s.limited(s.handleEdges(s.applyEdits)))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics(mode, s.writeMetrics))
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// engineAndVertex parses what /v1/single_source and /v1/topk share — the
// GET/POST method set, ?engine= (counted per engine) and the required ?q=
// — answering the request itself (ok = false) when any of it is wrong.
func (s *Server) engineAndVertex(w http.ResponseWriter, r *http.Request) (eng string, q int, ok bool) {
	if !s.checkMethod(w, r, http.MethodGet, http.MethodPost) {
		return "", 0, false
	}
	eng, err := engineParam(r)
	if err == nil {
		s.countEngine(eng)
		q, err = intParam(r, "q", 0, true)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return "", 0, false
	}
	return eng, q, true
}

// checkVertex answers 400 for a query vertex outside [0, n), in the words
// the index itself uses.
func (s *Server) checkVertex(w http.ResponseWriter, q int) bool {
	if q < 0 || q >= s.n {
		s.writeError(w, http.StatusBadRequest, "query: vertex %d out of range [0,%d)", q, s.n)
		return false
	}
	return true
}

// cached answers the request from the response cache when key is present.
func (s *Server) cached(w http.ResponseWriter, key string) bool {
	body, ok := s.cache.Get(key)
	if ok {
		writeJSONBytes(w, body)
	}
	return ok
}

// writeBody finishes a request with an encoded body (err is the
// encoder's). A degraded body is a stopgap — a rerank or solve the
// deadline could not afford, a vertex range a fleet could not reach — not
// the answer the client asked for: it is counted, marked with
// X-Simrank-Degraded, and never cached, or it would keep being served
// after the pressure is gone. Any other body enters the cache under key
// ("" = not cacheable).
func (s *Server) writeBody(w http.ResponseWriter, key string, degraded bool, body []byte, err error) {
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	if degraded {
		s.degradedTotal.Add(1)
		w.Header().Set("X-Simrank-Degraded", "true")
	} else if key != "" {
		s.cache.Put(key, body)
	}
	writeJSONBytes(w, body)
}

// walkRow fetches q's walk-estimate row; the caller releases it.
func (s *Server) walkRow(ctx context.Context, q int) (row *sparserow.Row, degraded bool, err error) {
	rows, degraded, err := s.src.rows(ctx, []int{q})
	if err != nil {
		return nil, false, err
	}
	return rows[0], degraded, nil
}

// rank finishes a top-k query from a walk row: candidate selection, then
// the optional exact rerank against the source's current graph.
func (s *Server) rank(ctx context.Context, row *sparserow.Row, q, k int, rerank bool) ([]query.Ranked, error) {
	return query.RankSparse(ctx, s.src.graph(), s.c, s.horizon, s.n, row, q, min(k, s.n-1), &query.TopKOptions{Rerank: rerank})
}

type singleSourceResponse struct {
	Query int `json:"query"`
	N     int `json:"n"`
	// Scores is the dense score vector unless min was given.
	Scores []float64 `json:"scores,omitempty"`
	// Results holds only the entries with score >= min, sorted by
	// decreasing score, when the min parameter was given.
	Results []query.Ranked `json:"results,omitempty"`
	// Degraded marks walk estimates served in place of the exact row an
	// engine=linearized request could not afford, or a row missing at
	// least one shard's range (those targets report score 0). Absent
	// (false) on normal responses.
	Degraded bool `json:"degraded,omitempty"`
}

// handleSingleSource serves GET/POST
// /v1/single_source?q=17[&min=0.01][&engine=walk|linearized].
func (s *Server) handleSingleSource(w http.ResponseWriter, r *http.Request) {
	s.reqSingleSource.Add(1)
	eng, q, ok := s.engineAndVertex(w, r)
	if !ok {
		return
	}
	// min is parsed before any cache key is formed, and the key uses its
	// canonical decimal form: "0.01", "0.010", and "1e-2" are one entry.
	minRaw := r.FormValue("min")
	sparse := minRaw != ""
	var minVal float64
	if sparse {
		var err error
		if minVal, err = strconv.ParseFloat(minRaw, 64); err != nil {
			s.writeError(w, http.StatusBadRequest, "parameter \"min\": %v", err)
			return
		}
	}
	if !s.checkVertex(w, q) {
		return
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	if eng == engineLinearized {
		s.serveSingleSourceExact(w, r, q, sparse, minVal)
		return
	}
	// Dense responses are O(n) bytes each; caching them would make cache
	// memory scale with graph size times -cache entries, so only the
	// thresholded (sparse) form is memoized.
	var key string
	if sparse {
		key = ssCacheKey(s.src.genTag(), q, minVal)
		if s.cached(w, key) {
			return
		}
	}

	row, degraded, err := s.walkRow(r.Context(), q)
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	defer sparserow.Release(row)
	body, err := s.walkSingleSourceBody(q, row, sparse, minVal, degraded)
	s.writeBody(w, key, degraded, body, err)
}

// The response-cache keys. Every family starts with the source's
// generation tag, so an applied update invalidates atomically, and is
// shared between the single endpoints and the per-item entries of
// /v1/batch: a batch warms the cache for single queries and vice versa.
// Thresholds enter in canonical decimal form — "0.01", "0.010" and "1e-2"
// share one entry, whether they arrived as a query parameter or as a JSON
// number. The linearized engine has its own families (lss, etopk), so walk
// and exact bodies can never collide; etopk has no rerank component
// because exact scores need none.
func ssCacheKey(tag string, q int, min float64) string {
	return fmt.Sprintf("g%s:ss:%d:%s", tag, q, strconv.FormatFloat(min, 'g', -1, 64))
}

func lssCacheKey(tag string, q int, min float64) string {
	return fmt.Sprintf("g%s:lss:%d:%s", tag, q, strconv.FormatFloat(min, 'g', -1, 64))
}

func topKCacheKey(tag string, q, k int, rerank bool) string {
	return fmt.Sprintf("g%s:topk:%d:%d:%t", tag, q, k, rerank)
}

func etopkCacheKey(tag string, q, k int) string {
	return fmt.Sprintf("g%s:etopk:%d:%d", tag, q, k)
}

func joinCacheKey(tag string, k int, threshold float64, maxCand int) string {
	return fmt.Sprintf("g%s:join:%d:%s:%d", tag, k, strconv.FormatFloat(threshold, 'g', -1, 64), maxCand)
}

// sparseAbove filters a dense score vector down to the entries (other than
// the query itself) with score >= min, sorted by decreasing score with
// ties broken by vertex id.
func sparseAbove(scores []float64, q int, min float64) []query.Ranked {
	out := []query.Ranked{}
	for v, sc := range scores {
		if v != q && sc >= min {
			out = append(out, query.Ranked{Vertex: v, Score: sc})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Vertex < out[j].Vertex
	})
	return out
}

// walkSingleSourceBody is singleSourceBody from a walk row, byte for byte.
// The thresholded form is filtered from the row's entries; only the dense
// form — n scores by definition — writes the row out, into a pooled buffer,
// at encode time.
func (s *Server) walkSingleSourceBody(q int, row *sparserow.Row, sparse bool, min float64, degraded bool) ([]byte, error) {
	if sparse {
		return s.marshalBody(singleSourceResponse{Query: q, N: s.n, Results: row.Above(min, q, s.n), Degraded: degraded})
	}
	buf := s.scorePool.Get().(*[]float64)
	defer s.scorePool.Put(buf)
	row.Densify(*buf)
	return s.singleSourceBody(q, *buf, false, 0, degraded)
}

type topKResponse struct {
	Query    int  `json:"query"`
	K        int  `json:"k"`
	Reranked bool `json:"reranked"`
	// Degraded marks a response that could not be what was asked for: raw
	// walk estimates where the remaining deadline could not afford the
	// exact rerank (or the exact solve), or a ranking over a row missing a
	// shard's range. Without a missing range the scores are bit-identical
	// to the rerank=0 response. Absent (false) on normal responses, so
	// their bodies are unchanged.
	Degraded bool           `json:"degraded,omitempty"`
	Results  []query.Ranked `json:"results"`
}

// handleTopK serves GET/POST
// /v1/topk?q=17&k=10[&rerank=1][&engine=walk|linearized]. The row is
// ranked, and optionally exactly reranked, in one place whatever the
// source: the exact scorer's memoization is not bit-stable across visiting
// orders, so reranking per shard would diverge.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.reqTopK.Add(1)
	eng, q, ok := s.engineAndVertex(w, r)
	if !ok {
		return
	}
	k, err := intParam(r, "k", 10, false)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if k < 1 {
		s.writeError(w, http.StatusBadRequest, "query: top-k size %d < 1", k)
		return
	}
	rerank := boolParam(r, "rerank")
	if eng == engineLinearized && rerank {
		s.writeError(w, http.StatusBadRequest, "\"rerank\" is not valid with engine=linearized (exact scores need no rerank)")
		return
	}
	if !s.checkVertex(w, q) {
		return
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	if eng == engineLinearized {
		s.serveTopKExact(w, r, q, k)
		return
	}
	key := topKCacheKey(s.src.genTag(), q, k, rerank)
	if s.cached(w, key) {
		return
	}

	row, rowDegraded, err := s.walkRow(r.Context(), q)
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	defer sparserow.Release(row)

	// Degradation composes. A missing range degrades the estimates
	// themselves and disables the rerank (exact scores over an incomplete
	// row would be wrong confidently). A rerank the deadline cannot afford
	// is decided before committing to it, not after failing it: with the
	// sweep done, the raw estimates are already in hand, so the request
	// still gets a useful answer.
	useRerank := rerank && !rowDegraded
	pool := query.RerankPool(s.n, k, 0)
	budgetDegraded := useRerank && s.shouldDegrade(r.Context(), pool)
	if budgetDegraded {
		useRerank = false
	}
	degraded := rowDegraded || budgetDegraded
	t1 := time.Now()
	results, err := s.rank(r.Context(), row, q, k, useRerank)
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	if useRerank {
		s.observeRerank(time.Since(t1), pool)
	}
	body, err := s.topKBody(q, k, useRerank, degraded, results)
	s.writeBody(w, key, degraded, body, err)
}

// applyEdits is the front end's /v1/edges step under the write lock: the
// source applies the batch, and if its generation tag moved the old
// generation's cached bodies can never be served again — they are dropped
// now instead of squatting in the LRU until capacity-evicted. A batch of
// pure no-ops keeps the tag and the cache.
func (s *Server) applyEdits(ctx context.Context, edits []graph.Edit) (edgesResponse, error) {
	tag := s.src.genTag()
	resp, err := s.src.applyEdits(ctx, edits)
	if s.src.genTag() != tag {
		s.cache.Clear()
	}
	return resp, err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.src.healthz(time.Since(s.started).Seconds()))
}

// writeMetrics emits the /v1 front end's lines of /metrics, then the row
// source's own.
func (s *Server) writeMetrics(w io.Writer) {
	hits, misses := s.cache.Stats()
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"single_source\"} %d\n", s.reqSingleSource.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"topk\"} %d\n", s.reqTopK.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"batch\"} %d\n", s.reqBatch.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"join\"} %d\n", s.reqJoin.Load())
	fmt.Fprintf(w, "simrankd_batch_items_total %d\n", s.batchItems.Load())
	fmt.Fprintf(w, "simrankd_batch_item_errors_total %d\n", s.batchItemErrors.Load())
	fmt.Fprintf(w, "simrankd_requests_degraded_total %d\n", s.degradedTotal.Load())
	fmt.Fprintf(w, "simrankd_engine_requests_total{engine=\"walk\"} %d\n", s.engineWalkTotal.Load())
	fmt.Fprintf(w, "simrankd_engine_requests_total{engine=\"linearized\"} %d\n", s.engineLinTotal.Load())
	s.writeCostModelMetrics(w)
	fmt.Fprintf(w, "simrankd_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "simrankd_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "simrankd_index_vertices %d\n", s.n)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.src.writeMetrics(w)
}
