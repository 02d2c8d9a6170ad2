// Package simrankd implements the simrankd HTTP server: the /v1 query
// endpoints over a persistent walk index (see oipsr/simrank/query), the
// health probe, and Prometheus-style /metrics. cmd/simrankd wires it to
// flags and a listener; cmd/bench drives it in-process for closed-loop
// load benchmarks — the package exists so both share one server.
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
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oipsr/internal/lru"
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

// Server is the simrankd HTTP handler. Construct with NewServer.
//
// Concurrency: queries hold mu.RLock for their whole execution (the index
// is repaired in place, not swapped), /v1/edges holds mu.Lock while it
// applies the batch. Reads stay fully concurrent with each other; the
// limiter bounds how many of them execute at once.
type Server struct {
	// serving carries the limiter, deadlines, degradation model, error
	// encoding, and overload counters shared with ShardServer and Router.
	serving

	mu      sync.RWMutex
	idx     *query.Index
	workers int
	cache   *lru.Cache[string, []byte]
	mux     *http.ServeMux

	// scorePool recycles dense score rows (one []float64 of length N per
	// in-flight sweep; the vertex count never changes — edge edits repair
	// walks, they don't add vertices).
	scorePool sync.Pool

	// Per-endpoint request counters exported on /metrics.
	reqSingleSource atomic.Int64
	reqTopK         atomic.Int64
	reqEdges        atomic.Int64
	reqBatch        atomic.Int64
	reqJoin         atomic.Int64

	batchItems      atomic.Int64
	batchItemErrors atomic.Int64

	updatesTotal  atomic.Int64
	updateMicros  atomic.Int64
	edgesAdded    atomic.Int64
	edgesRemoved  atomic.Int64
	walksRepaired atomic.Int64
}

// NewServer returns a handler serving queries from idx under cfg.
func NewServer(idx *query.Index, cfg Config) *Server {
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	s := &Server{
		idx:     idx,
		workers: cfg.Workers,
		cache:   lru.New[string, []byte](cacheSize),
		mux:     http.NewServeMux(),
	}
	s.initServing(cfg)
	n := idx.N()
	s.scorePool.New = func() any { b := make([]float64, n); return &b }

	s.mux.HandleFunc("/v1/single_source", s.limited(s.handleSingleSource))
	s.mux.HandleFunc("/v1/topk", s.limited(s.handleTopK))
	s.mux.HandleFunc("/v1/batch", s.limited(s.handleBatch))
	s.mux.HandleFunc("/v1/join", s.limited(s.handleJoin))
	s.mux.HandleFunc("/v1/edges", s.limited(s.handleEdges))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

type singleSourceResponse struct {
	Query int `json:"query"`
	N     int `json:"n"`
	// Scores is the dense score vector unless min was given.
	Scores []float64 `json:"scores,omitempty"`
	// Results holds only the entries with score >= min, sorted by
	// decreasing score, when the min parameter was given.
	Results []query.Ranked `json:"results,omitempty"`
	// Degraded marks a router-merged response missing at least one
	// shard's partial row (those targets report score 0). The single-node
	// daemon never sets it, so its bodies are unchanged.
	Degraded bool `json:"degraded,omitempty"`
}

// handleSingleSource serves GET/POST
// /v1/single_source?q=17[&min=0.01][&engine=walk|linearized].
func (s *Server) handleSingleSource(w http.ResponseWriter, r *http.Request) {
	s.reqSingleSource.Add(1)
	if !s.checkMethod(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	eng, err := engineParam(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.countEngine(eng)
	q, err := intParam(r, "q", 0, true)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// min is parsed before any cache key is formed, and the key uses its
	// canonical decimal form: "0.01", "0.010", and "1e-2" are one entry.
	minRaw := r.FormValue("min")
	var minVal float64
	if minRaw != "" {
		minVal, err = strconv.ParseFloat(minRaw, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "parameter \"min\": %v", err)
			return
		}
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	if eng == engineLinearized {
		s.serveSingleSourceExact(w, r, q, minRaw != "", minVal)
		return
	}
	// Dense responses are O(n) bytes each; caching them would make cache
	// memory scale with graph size times -cache entries, so only the
	// thresholded (sparse) form is memoized.
	cacheable := minRaw != ""
	var key string
	if cacheable {
		key = ssCacheKey(s.idx.Generation(), q, minVal)
		if body, ok := s.cache.Get(key); ok {
			writeJSONBytes(w, body)
			return
		}
	}

	buf := s.scorePool.Get().(*[]float64)
	defer s.scorePool.Put(buf)
	scores, err := s.idx.SingleSourceInto(r.Context(), q, *buf)
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	body, err := s.singleSourceBody(q, scores, cacheable, minVal, false)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	if cacheable {
		s.cache.Put(key, body)
	}
	writeJSONBytes(w, body)
}

// ssCacheKey is the response-cache key of a thresholded single-source
// query: the index generation (so updates invalidate atomically), the
// source, and the threshold in canonical decimal form — "0.01", "0.010"
// and "1e-2" share one entry, whether they arrived as a query parameter on
// /v1/single_source or as a JSON number on /v1/batch.
func ssCacheKey(gen uint64, q int, min float64) string {
	return fmt.Sprintf("g%d:ss:%d:%s", gen, q, strconv.FormatFloat(min, 'g', -1, 64))
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

type topKResponse struct {
	Query    int  `json:"query"`
	K        int  `json:"k"`
	Reranked bool `json:"reranked"`
	// Degraded marks a response that asked for rerank=1 but was served
	// raw walk estimates because the remaining deadline budget could not
	// afford the exact rerank. Scores are then bit-identical to the
	// rerank=0 response. Absent (false) on normal responses, so their
	// bodies are unchanged.
	Degraded bool           `json:"degraded,omitempty"`
	Results  []query.Ranked `json:"results"`
}

// handleTopK serves GET/POST
// /v1/topk?q=17&k=10[&rerank=1][&engine=walk|linearized].
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.reqTopK.Add(1)
	if !s.checkMethod(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	eng, err := engineParam(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.countEngine(eng)
	q, err := intParam(r, "q", 0, true)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
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

	s.mu.RLock()
	defer s.mu.RUnlock()
	if eng == engineLinearized {
		s.serveTopKExact(w, r, q, k)
		return
	}
	key := topKCacheKey(s.idx.Generation(), q, k, rerank)
	if body, ok := s.cache.Get(key); ok {
		writeJSONBytes(w, body)
		return
	}

	buf := s.scorePool.Get().(*[]float64)
	defer s.scorePool.Put(buf)
	scores, err := s.idx.SingleSourceInto(r.Context(), q, *buf)
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}

	// Degrade before committing to the rerank, not after failing it: with
	// the sweep done, the raw estimates are already in hand, so a request
	// that cannot afford exact re-scoring still gets a useful answer.
	useRerank := rerank
	pool := s.idx.RerankPoolSize(k, 0)
	degraded := rerank && s.shouldDegrade(r.Context(), pool)
	if degraded {
		useRerank = false
	}
	t1 := time.Now()
	results, err := s.idx.TopKFromScores(r.Context(), scores, q, k, &query.TopKOptions{Rerank: useRerank})
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	if useRerank {
		s.observeRerank(time.Since(t1), pool)
	}

	body, err := s.topKBody(q, k, useRerank, degraded, results)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	if degraded {
		// Degraded bodies are a stopgap under pressure, not the answer the
		// client asked for; caching one would keep serving it after the
		// pressure is gone.
		s.degradedTotal.Add(1)
		w.Header().Set("X-Simrank-Degraded", "true")
	} else {
		s.cache.Put(key, body)
	}
	writeJSONBytes(w, body)
}

// topKCacheKey is the response-cache key of a top-k query, shared between
// /v1/topk and the per-item entries of /v1/batch: a batch warms the cache
// for single queries and vice versa, and the folded-in generation makes
// pre-update entries unservable after an update.
func topKCacheKey(gen uint64, q, k int, rerank bool) string {
	return fmt.Sprintf("g%d:topk:%d:%d:%t", gen, q, k, rerank)
}

type edgeEdit struct {
	Op string `json:"op"` // "add" | "remove"
	U  int    `json:"u"`
	V  int    `json:"v"`
}

type edgesRequest struct {
	Edits []edgeEdit `json:"edits"`
}

type edgesResponse struct {
	// Added/Removed count effective changes; no-op edits are accepted and
	// simply don't contribute.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// DirtyVertices and WalksRepaired describe the incremental repair.
	DirtyVertices int    `json:"dirty_vertices"`
	WalksRepaired int    `json:"walks_repaired"`
	Generation    uint64 `json:"generation"`
	Edges         int    `json:"edges"` // graph edge count after the batch
	UpdateMicros  int64  `json:"update_micros"`
}

// handleEdges serves POST /v1/edges: a batch of edge adds/removes applied
// to the live graph with an incremental, bit-identical index repair. The
// repair itself is not cancellable (aborting a half-applied repair would
// corrupt the index), so the request deadline gates only admission.
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	s.reqEdges.Add(1)
	if !s.checkMethod(w, r, http.MethodPost) {
		return
	}
	var req edgesRequest
	if !s.decodeJSONBody(w, r, &req) {
		return
	}
	edits, errMsg := parseEdits(req.Edits)
	if errMsg != "" {
		s.writeError(w, http.StatusBadRequest, "%s", errMsg)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	u0 := time.Now()
	gen0 := s.idx.Generation()
	stats, err := s.idx.ApplyEdits(edits, s.workers)
	if err != nil {
		// Invalid edits are the client's fault; an index beyond the
		// incremental-maintenance capacity is ours.
		code := http.StatusBadRequest
		if errors.Is(err, query.ErrTooLarge) {
			code = http.StatusInternalServerError
		}
		s.writeError(w, code, "%v", err)
		return
	}
	if stats.Generation != gen0 {
		// The old generation's cached bodies can never be served again;
		// drop them now instead of letting them squat in the LRU until
		// capacity-evicted.
		s.cache.Clear()
	}
	updateMicros := time.Since(u0).Microseconds()
	s.updatesTotal.Add(1)
	s.updateMicros.Add(updateMicros)
	s.edgesAdded.Add(int64(stats.EdgesAdded))
	s.edgesRemoved.Add(int64(stats.EdgesRemoved))
	s.walksRepaired.Add(int64(stats.WalksRepaired))

	body, err := s.marshalBody(edgesResponse{
		Added:         stats.EdgesAdded,
		Removed:       stats.EdgesRemoved,
		DirtyVertices: stats.DirtyVertices,
		WalksRepaired: stats.WalksRepaired,
		Generation:    stats.Generation,
		Edges:         s.idx.Graph().NumEdges(),
		UpdateMicros:  updateMicros,
	})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	writeJSONBytes(w, body)
}

type healthzResponse struct {
	Status     string  `json:"status"`
	Vertices   int     `json:"vertices"`
	Walks      int     `json:"walks"`
	Horizon    int     `json:"horizon"`
	C          float64 `json:"c"`
	IndexBytes int64   `json:"index_bytes"`
	// ForestBytes is the coalescence order a dense index answers from,
	// derived state on top of IndexBytes; 0 when mapped.
	ForestBytes int64 `json:"index_forest_bytes"`
	// Backend is the walk-storage backing: "dense" in memory, "mapped"
	// (or "mapped-readat") when serving a demand-paged v2 index file.
	Backend    string  `json:"backend"`
	Generation uint64  `json:"generation"`
	UptimeSecs float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(healthzResponse{
		Status:      "ok",
		Vertices:    s.idx.N(),
		Walks:       s.idx.Walks(),
		Horizon:     s.idx.Horizon(),
		C:           s.idx.C(),
		IndexBytes:  s.idx.Bytes(),
		ForestBytes: s.idx.ForestBytes(),
		Backend:     s.idx.Backend(),
		Generation:  s.idx.Generation(),
		UptimeSecs:  time.Since(s.started).Seconds(),
	})
}

// handleMetrics dumps the counters in the Prometheus text exposition
// format (no client library dependency).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.Stats()
	s.mu.RLock()
	generation := s.idx.Generation()
	vertices := s.idx.N()
	indexBytes, forestBytes := s.idx.Bytes(), s.idx.ForestBytes()
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	buildInfoMetric(w, "serve")
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"single_source\"} %d\n", s.reqSingleSource.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"topk\"} %d\n", s.reqTopK.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"edges\"} %d\n", s.reqEdges.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"batch\"} %d\n", s.reqBatch.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"join\"} %d\n", s.reqJoin.Load())
	fmt.Fprintf(w, "simrankd_batch_items_total %d\n", s.batchItems.Load())
	fmt.Fprintf(w, "simrankd_batch_item_errors_total %d\n", s.batchItemErrors.Load())
	fmt.Fprintf(w, "simrankd_request_errors_total %d\n", s.reqErrors.Load())
	fmt.Fprintf(w, "simrankd_requests_shed_total %d\n", s.shedTotal.Load())
	fmt.Fprintf(w, "simrankd_requests_degraded_total %d\n", s.degradedTotal.Load())
	s.writeEngineMetrics(w)
	s.writeCostModelMetrics(w)
	fmt.Fprintf(w, "simrankd_inflight_requests %d\n", s.inflight.Load())
	fmt.Fprintf(w, "simrankd_queued_requests %d\n", s.queued.Load())
	fmt.Fprintf(w, "simrankd_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "simrankd_cache_misses_total %d\n", misses)
	s.latency.WriteProm(w, "simrankd_request_latency_seconds")
	fmt.Fprintf(w, "simrankd_index_generation %d\n", generation)
	fmt.Fprintf(w, "simrankd_updates_total %d\n", s.updatesTotal.Load())
	fmt.Fprintf(w, "simrankd_update_latency_micros_total %d\n", s.updateMicros.Load())
	fmt.Fprintf(w, "simrankd_update_edges_added_total %d\n", s.edgesAdded.Load())
	fmt.Fprintf(w, "simrankd_update_edges_removed_total %d\n", s.edgesRemoved.Load())
	fmt.Fprintf(w, "simrankd_update_walks_repaired_total %d\n", s.walksRepaired.Load())
	fmt.Fprintf(w, "simrankd_index_vertices %d\n", vertices)
	fmt.Fprintf(w, "simrankd_index_bytes %d\n", indexBytes)
	fmt.Fprintf(w, "simrankd_index_forest_bytes %d\n", forestBytes)
}
