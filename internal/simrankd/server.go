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

	// scorePool recycles dense score rows of length n: what a row is
	// written out into for the one body that is dense by definition.
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

// outOfRange is the error of a query vertex outside [0, n), in the words
// the index itself uses: a 400 from the single endpoints, an item error
// line in a batch.
func (s *Server) outOfRange(q int) error {
	if q < 0 || q >= s.n {
		return fmt.Errorf("query: vertex %d out of range [0,%d)", q, s.n)
	}
	return nil
}

// cached answers the request from the response cache when key is present
// ("" = not cacheable, never looked up).
func (s *Server) cached(w http.ResponseWriter, key string) bool {
	if key == "" {
		return false
	}
	body, ok := s.cache.Get(key)
	if ok {
		writeJSONBytes(w, body)
	}
	return ok
}

// writeBody finishes a request with an encoded body. A degraded body is a
// stopgap — a rerank the deadline could not afford, a vertex range a fleet
// could not reach — not the answer the client asked for: it is
// counted, marked with X-Simrank-Degraded, and never cached, or it would
// keep being served after the pressure is gone. Any other body enters the
// cache under key ("" = not cacheable).
func (s *Server) writeBody(w http.ResponseWriter, key string, degraded bool, body []byte) {
	if degraded {
		s.degradedTotal.Add(1)
		w.Header().Set("X-Simrank-Degraded", "true")
	} else if key != "" {
		s.cache.Put(key, body)
	}
	writeJSONBytes(w, body)
}

type singleSourceResponse struct {
	Query int `json:"query"`
	N     int `json:"n"`
	// Scores is the dense score vector unless min was given.
	Scores []float64 `json:"scores,omitempty"`
	// Results holds only the entries with score >= min, sorted by
	// decreasing score, when the min parameter was given.
	Results []query.Ranked `json:"results,omitempty"`
	// Degraded marks a row missing at least one shard's range (those
	// targets report score 0). Absent (false) on normal responses.
	Degraded bool `json:"degraded,omitempty"`
}

// handleSingleSource serves GET/POST
// /v1/single_source?q=17[&min=0.01][&engine=walk].
func (s *Server) handleSingleSource(w http.ResponseWriter, r *http.Request) {
	s.reqSingleSource.Add(1)
	s.serveOne(w, r, func(a *ask) (err error) {
		// min is parsed before any cache key is formed, and the key uses
		// its canonical decimal form.
		if minRaw := r.FormValue("min"); minRaw != "" {
			if a.min, err = strconv.ParseFloat(minRaw, 64); err != nil {
				return fmt.Errorf("parameter \"min\": %v", err)
			}
			a.sparse = true
		}
		return nil
	})
}

// singleSourceBody marshals the /v1/single_source response body from q's
// row — also the per-item line /v1/batch streams, so the two endpoints
// answer (and cache) byte-identically. The thresholded form is
// filtered from the row's entries; only the dense form — n scores by
// definition — writes the row out, into a pooled buffer, at encode time.
func (s *Server) singleSourceBody(q int, row *sparserow.Row, sparse bool, min float64, degraded bool) ([]byte, error) {
	resp := singleSourceResponse{Query: q, N: s.n, Degraded: degraded}
	if sparse {
		resp.Results = row.Above(min, q, s.n)
	} else {
		buf := s.scorePool.Get().(*[]float64)
		defer s.scorePool.Put(buf)
		row.Densify(*buf, 0)
		resp.Scores = *buf
	}
	return s.marshalBody(resp)
}

type topKResponse struct {
	Query    int  `json:"query"`
	K        int  `json:"k"`
	Reranked bool `json:"reranked"`
	// Degraded marks a response that could not be what was asked for: raw
	// walk estimates where the remaining deadline could not afford the
	// exact rerank, or a ranking over a row missing a shard's range.
	// Without a missing range the scores are bit-identical to the rerank=0
	// response. Absent (false) on normal responses, so their bodies are
	// unchanged.
	Degraded bool           `json:"degraded,omitempty"`
	Results  []query.Ranked `json:"results"`
}

// handleTopK serves GET/POST
// /v1/topk?q=17&k=10[&rerank=1][&engine=walk]. The row is
// ranked, and optionally exactly reranked, in one place whatever the
// source: the exact scorer's memoization is not bit-stable across visiting
// orders, so reranking per shard would diverge.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.reqTopK.Add(1)
	s.serveOne(w, r, func(a *ask) (err error) {
		a.topk = true
		if a.k, err = intParam(r, "k", 10, false); err != nil {
			return err
		}
		if a.k < 1 {
			return fmt.Errorf("query: top-k size %d < 1", a.k)
		}
		a.rerank = boolParam(r, "rerank")
		return nil
	})
}

// ask is what one source's answer depends on besides the source: the
// parameters of a /v1/single_source or /v1/topk request, and of every line
// of a /v1/batch, which shares them batch-wide. A single query is a batch
// of one: both parse into an ask, and answer makes every body from one.
type ask struct {
	// topk selects the /v1/topk answer (k results, optionally reranked);
	// otherwise it is the /v1/single_source row, whole or thresholded.
	topk   bool
	k      int
	rerank bool
	// sparse reports that a threshold min was given: the body lists the
	// entries scoring at least min instead of all n scores.
	sparse bool
	min    float64
}

// wholeRow reports a single_source answer of O(n) bytes: the dense row, or
// a threshold min <= 0, which admits every vertex at score 0 or more.
func (a ask) wholeRow() bool { return !a.topk && (!a.sparse || a.min <= 0) }

// key is the response-cache key of q's answer under a, "" for a whole row:
// caching O(n) bodies would make cache memory scale with graph size times
// the entry count. The key is shared between the single endpoints and the
// lines of /v1/batch, so a batch warms the cache for single queries and
// vice versa.
func (a ask) key(tag string, q int) string {
	switch {
	case a.topk:
		return cacheKey(tag, "topk", q, a.k, a.rerank)
	case a.wholeRow():
		return ""
	}
	return cacheKey(tag, "ss", q, a.min)
}

// cacheKey forms every response-cache key: "g", the source's generation
// tag (so an applied update invalidates atomically), the family, then the
// family's parameters, ':'-separated. A float64 enters in its shortest
// decimal form, so "0.01", "0.010" and "1e-2" share one entry, whether
// they arrived as a query parameter or as a JSON number.
func cacheKey(tag, family string, params ...any) string {
	b := make([]byte, 0, 48)
	b = append(append(append(append(b, 'g'), tag...), ':'), family...)
	for _, p := range params {
		b = append(b, ':')
		switch p := p.(type) {
		case int:
			b = strconv.AppendInt(b, int64(p), 10)
		case bool:
			b = strconv.AppendBool(b, p)
		case float64:
			b = strconv.AppendFloat(b, p, 'g', -1, 64)
		}
	}
	return string(b)
}

// answer makes the body of every source under a into bodies — the one
// place a /v1 answer is made, for a single query and for each chunk of a
// batch. It fetches the walk-estimate rows, ranks them when a asks for a
// top-k, and encodes.
// degraded reports bodies that are not what was asked for: they are
// counted, marked and never cached. The caller holds mu.RLock and has
// checked every source against n.
func (s *Server) answer(ctx context.Context, a ask, sources []int, bodies [][]byte) (degraded bool, err error) {
	rows, degraded, err := s.src.rows(ctx, sources)
	if err != nil {
		return false, err
	}
	// A body holds copies, never row memory.
	defer sparserow.Release(rows...)
	if !a.topk {
		for j, q := range sources {
			if bodies[j], err = s.singleSourceBody(q, rows[j], a.sparse, a.min, degraded); err != nil {
				return false, err
			}
		}
		return degraded, nil
	}

	// Degradation composes. A missing range degrades the estimates
	// themselves and disables the rerank (exact scores over an incomplete
	// row would be wrong confidently). A rerank the deadline cannot afford
	// is decided before committing to it, not after failing it: the raw
	// estimates are already in hand, so the request still gets a useful
	// answer. The decision sees every source's pool, summed as if reranked
	// one after another whatever the workers, so a batch that starts exact
	// can finish degraded as the budget drains, each line honestly marked.
	rerank := a.rerank && !degraded
	pool := query.RerankPool(s.n, a.k, 0) * len(sources)
	if rerank && s.shouldDegrade(ctx, pool) {
		rerank, degraded = false, true
	}
	results, took, err := s.rankRows(ctx, rows, sources, a.k, rerank)
	if err != nil {
		return false, err
	}
	if rerank {
		s.observeRerank(took, pool)
	}
	for j, q := range sources {
		resp := topKResponse{Query: q, K: a.k, Reranked: rerank, Degraded: degraded, Results: results[j]}
		if bodies[j], err = s.marshalBody(resp); err != nil {
			return false, err
		}
	}
	return degraded, nil
}

// serveOne answers /v1/single_source or /v1/topk. It checks what the two
// share — the GET/POST method set, ?engine= and the required ?q= — then the
// endpoint's own parameters (parse fills them into an ask), and answers the
// source as a batch of one: cache lookup, answer, writeBody.
func (s *Server) serveOne(w http.ResponseWriter, r *http.Request, parse func(a *ask) error) {
	if !s.checkMethod(w, r, http.MethodGet, http.MethodPost) || !s.checkEngine(w, r) {
		return
	}
	var a ask
	q, err := intParam(r, "q", 0, true)
	if err == nil {
		err = parse(&a)
	}
	if err == nil {
		err = s.outOfRange(q)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	key := a.key(s.src.genTag(), q)
	if s.cached(w, key) {
		return
	}
	var body [1][]byte
	degraded, err := s.answer(r.Context(), a, []int{q}, body[:])
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	s.writeBody(w, key, degraded, body[0])
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
	s.writeCostModelMetrics(w)
	fmt.Fprintf(w, "simrankd_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "simrankd_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "simrankd_index_vertices %d\n", s.n)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.src.writeMetrics(w)
}
