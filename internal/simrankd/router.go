package simrankd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oipsr/graph"
	"oipsr/internal/lru"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// Router is the stateless scatter/gather front of a shard fleet. It
// serves the exact public /v1 surface of the single-node daemon —
// single_source, topk, batch, join, edges — by scattering each query to
// the shard backends over HTTP and merging their partials:
//
//   - dense score rows merge by concatenation (each shard owns a disjoint
//     contiguous vertex range), so no float arithmetic happens in the
//     merge and the assembled row is bit-identical to the single-node one;
//   - top-k ranking and the optional exact rerank run once, at the
//     router, over the merged row (the exact scorer's memoization is not
//     bit-stable across visiting orders, so per-shard reranking would
//     diverge);
//   - joins scatter along the fingerprint axis (each backend enumerates
//     candidates for one fp range), union at the router, and scatter pair
//     scoring back to the owner of each pair's first vertex;
//   - /v1/edges broadcasts to every backend — edits are idempotent at the
//     graph layer, so retrying a partially-applied broadcast converges.
//
// The router holds the full graph (tiny next to the walk rows, which live
// only on the shards) for reranking and for validating edits, and an LRU
// response cache keyed by the per-shard generation vector: any shard
// update changes the vector, so stale merges are unreachable, exactly the
// single-node generation-key scheme lifted to a fleet.
//
// Overload discipline is inherited wholesale from the embedded serving:
// deadlines, admission control, shedding. On top of it, each scatter leg
// runs under ShardTimeout; a backend that sheds, fails, or times out
// mid-scatter costs its vertex range, not the request — the merged answer
// reports zeros for the missing range, carries "degraded":true and the
// X-Simrank-Degraded header, and is never cached.
type Router struct {
	serving

	// mu guards g and gens: queries hold RLock for their whole
	// scatter/merge (so an edits broadcast cannot interleave), /v1/edges
	// holds Lock across its broadcast.
	mu   sync.RWMutex
	g    *graph.Graph
	gens []uint64

	client       *http.Client
	backends     []string
	ranges       []shard.Range
	fpRanges     []shard.Range
	shardTimeout time.Duration

	n       int
	walks   int
	horizon int
	c       float64

	cache *lru.Cache[string, []byte]
	mux   *http.ServeMux

	// exact holds the lazily-built linearized solver behind the router's
	// ?engine=linearized queries (see engine.go) — the router has the full
	// graph, so exact rows are solved locally, not scattered.
	exact routerExact

	reqSingleSource atomic.Int64
	reqTopK         atomic.Int64
	reqBatch        atomic.Int64
	reqJoin         atomic.Int64
	reqEdges        atomic.Int64

	batchItems      atomic.Int64
	batchItemErrors atomic.Int64

	// shardErrors counts failed scatter legs (shed, error, timeout) —
	// each one degrades a merged answer.
	shardErrors  atomic.Int64
	updatesTotal atomic.Int64
	updateMicros atomic.Int64
}

// DefaultShardTimeout bounds one scatter leg when RouterConfig.ShardTimeout
// is zero: long enough for a cold partial sweep, short enough that a hung
// backend degrades the answer instead of consuming the whole request
// deadline.
const DefaultShardTimeout = 5 * time.Second

// RouterConfig configures a Router: the shared serving knobs plus the
// per-backend scatter deadline.
type RouterConfig struct {
	Config
	// ShardTimeout is the deadline of one scatter leg to one backend
	// (always also capped by the request deadline); 0 means
	// DefaultShardTimeout.
	ShardTimeout time.Duration
}

// NewRouter probes every backend's /healthz, validates that they form a
// contiguous partition of one index (same n, walks, horizon, c, seed;
// ranges covering [0, n)), and returns the scatter/gather handler. g must
// be the same graph the shards were built on — the router reranks and
// validates edits against it. Backends may be listed in any order.
func NewRouter(g *graph.Graph, backends []string, cfg RouterConfig) (*Router, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("simrankd: router needs at least one shard backend")
	}
	rt := &Router{
		g:            g,
		client:       &http.Client{},
		shardTimeout: cfg.ShardTimeout,
		mux:          http.NewServeMux(),
	}
	if rt.shardTimeout <= 0 {
		rt.shardTimeout = DefaultShardTimeout
	}
	rt.initServing(cfg.Config)
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	rt.cache = lru.New[string, []byte](cacheSize)

	// Probe each backend, then sort by range so backends[i] owns ranges[i]
	// in ascending vertex order.
	type probed struct {
		url string
		h   shardHealthzResponse
	}
	probes := make([]probed, 0, len(backends))
	for _, base := range backends {
		base = strings.TrimRight(base, "/")
		ctx, cancel := context.WithTimeout(context.Background(), rt.shardTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("simrankd: probing %s: %w", base, err)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("simrankd: probing %s: %w", base, err)
		}
		var h shardHealthzResponse
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("simrankd: probing %s: %w", base, err)
		}
		probes = append(probes, probed{url: base, h: h})
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i].h.Lo < probes[j].h.Lo })

	first := probes[0].h
	if g.NumVertices() != first.Vertices {
		return nil, fmt.Errorf("simrankd: router graph has %d vertices, shards were built on %d", g.NumVertices(), first.Vertices)
	}
	next := 0
	for _, p := range probes {
		h := p.h
		if h.Vertices != first.Vertices || h.Walks != first.Walks || h.Horizon != first.Horizon ||
			h.C != first.C || h.Seed != first.Seed {
			return nil, fmt.Errorf("simrankd: backend %s disagrees with the fleet (n=%d walks=%d horizon=%d c=%v seed=%d)",
				p.url, h.Vertices, h.Walks, h.Horizon, h.C, h.Seed)
		}
		if h.Lo != next || h.Hi < h.Lo {
			return nil, fmt.Errorf("simrankd: backend %s range [%d,%d) breaks the partition at %d", p.url, h.Lo, h.Hi, next)
		}
		next = h.Hi
		rt.backends = append(rt.backends, p.url)
		rt.ranges = append(rt.ranges, shard.Range{Lo: h.Lo, Hi: h.Hi})
		rt.gens = append(rt.gens, h.Generation)
	}
	if next != first.Vertices {
		return nil, fmt.Errorf("simrankd: backends cover [0,%d) of [0,%d)", next, first.Vertices)
	}
	rt.n = first.Vertices
	rt.walks = first.Walks
	rt.horizon = first.Horizon
	rt.c = first.C
	fpRanges, err := shard.Plan(rt.walks, len(rt.backends))
	if err != nil {
		return nil, err
	}
	rt.fpRanges = fpRanges

	rt.mux.HandleFunc("/v1/single_source", rt.limited(rt.handleSingleSource))
	rt.mux.HandleFunc("/v1/topk", rt.limited(rt.handleTopK))
	rt.mux.HandleFunc("/v1/batch", rt.limited(rt.handleBatch))
	rt.mux.HandleFunc("/v1/join", rt.limited(rt.handleJoin))
	rt.mux.HandleFunc("/v1/edges", rt.limited(rt.handleEdges))
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// shardHTTPError is a non-200 answer from a backend, preserving the
// status so join-candidate 400s (deterministic client errors, e.g.
// too-dense) can be propagated verbatim while 429/5xx degrade.
type shardHTTPError struct {
	status int
	msg    string
}

func (e *shardHTTPError) Error() string { return e.msg }

// postShard posts one JSON request to a backend and decodes the JSON
// response, under a child deadline of shardTimeout (the request deadline
// still applies — a leg never outlives its request).
func (rt *Router) postShard(ctx context.Context, base, path string, reqBody, out any) error {
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, rt.shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eresp errorResponse
		if derr := json.NewDecoder(resp.Body).Decode(&eresp); derr != nil || eresp.Error == "" {
			eresp.Error = fmt.Sprintf("backend %s: status %d", base, resp.StatusCode)
		}
		return &shardHTTPError{status: resp.StatusCode, msg: eresp.Error}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// genTagLocked renders the per-shard generation vector as the cache-key
// prefix ("0.0.2" for three shards). Callers hold mu (either side).
func (rt *Router) genTagLocked() string {
	var b strings.Builder
	for i, g := range rt.gens {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "%d", g)
	}
	return b.String()
}

// Router cache keys mirror the single-node ones with the generation
// vector in place of the single generation; the per-request parameter
// canonicalization (threshold decimal form, etc.) is shared.
func rtSSKey(tag string, q int, min float64) string {
	return fmt.Sprintf("g%s:ss:%d:%s", tag, q, strconv.FormatFloat(min, 'g', -1, 64))
}

func rtTopKKey(tag string, q, k int, rerank bool) string {
	return fmt.Sprintf("g%s:topk:%d:%d:%t", tag, q, k, rerank)
}

func rtJoinKey(tag string, k int, threshold float64, maxCand int) string {
	return fmt.Sprintf("g%s:join:%d:%s:%d", tag, k,
		strconv.FormatFloat(threshold, 'g', -1, 64), maxCand)
}

// scatterScores scatters one batch of sources to every backend and merges
// the partial rows into rows (caller-allocated, len(sources) × n, zeroed).
// It reports degraded=true when any backend's partial is missing (failed,
// shed, timed out) or was served at a generation other than the recorded
// one — either way the merge is not the current single-node answer and
// must not be cached. Callers hold mu.RLock.
func (rt *Router) scatterScores(ctx context.Context, sources []int, rows [][]float64) (degraded bool, err error) {
	var wg sync.WaitGroup
	failed := make([]bool, len(rt.backends))
	for i := range rt.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := rt.ranges[i]
			var resp shardScoresResponse
			if err := rt.postShard(ctx, rt.backends[i], "/shard/v1/scores", shardScoresRequest{Sources: sources}, &resp); err != nil {
				failed[i] = true
				return
			}
			if resp.Lo != want.Lo || resp.Hi != want.Hi || len(resp.Rows) != len(sources) ||
				resp.Generation != rt.gens[i] {
				failed[i] = true
				return
			}
			for si, row := range resp.Rows {
				if len(row) != want.Hi-want.Lo {
					failed[i] = true
					return
				}
				copy(rows[si][want.Lo:want.Hi], row)
			}
		}(i)
	}
	wg.Wait()
	// A dead request deadline explains every leg failing; report the
	// context (503) rather than a fully-zeroed "degraded" answer.
	if err := ctx.Err(); err != nil {
		return false, err
	}
	for _, f := range failed {
		if f {
			rt.shardErrors.Add(1)
			degraded = true
		}
	}
	return degraded, nil
}

// handleSingleSource serves GET/POST /v1/single_source?q=17[&min=0.01] —
// the same contract (and byte-identical bodies) as the single-node
// daemon, assembled from per-shard partial rows.
func (rt *Router) handleSingleSource(w http.ResponseWriter, r *http.Request) {
	rt.reqSingleSource.Add(1)
	if !rt.checkMethod(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	eng, err := engineParam(r)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.countEngine(eng)
	q, err := intParam(r, "q", 0, true)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	minRaw := r.FormValue("min")
	var minVal float64
	if minRaw != "" {
		minVal, err = strconv.ParseFloat(minRaw, 64)
		if err != nil {
			rt.writeError(w, http.StatusBadRequest, "parameter \"min\": %v", err)
			return
		}
	}
	if q < 0 || q >= rt.n {
		rt.writeError(w, http.StatusBadRequest, "query: vertex %d out of range [0,%d)", q, rt.n)
		return
	}

	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if eng == engineLinearized {
		rt.serveSingleSourceExact(w, r, q, minRaw != "", minVal)
		return
	}
	cacheable := minRaw != ""
	var key string
	if cacheable {
		key = rtSSKey(rt.genTagLocked(), q, minVal)
		if body, ok := rt.cache.Get(key); ok {
			writeJSONBytes(w, body)
			return
		}
	}

	rows := [][]float64{make([]float64, rt.n)}
	degraded, err := rt.scatterScores(r.Context(), []int{q}, rows)
	if err != nil {
		rt.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	body, err := rt.singleSourceBody(q, rows[0], cacheable, minVal, degraded)
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	if degraded {
		rt.degradedTotal.Add(1)
		w.Header().Set("X-Simrank-Degraded", "true")
	} else if cacheable {
		rt.cache.Put(key, body)
	}
	writeJSONBytes(w, body)
}

// handleTopK serves GET/POST /v1/topk?q=17&k=10[&rerank=1]. The merged
// dense row is ranked (and optionally exactly reranked against the
// router's graph) in one place, so results are bit-identical to the
// single-node daemon's. Degradation composes: a missing shard degrades
// the estimates themselves (and disables rerank — exact scores over an
// incomplete row would be wrong confidently); a rerank the deadline
// cannot afford degrades to raw estimates exactly like the single node.
func (rt *Router) handleTopK(w http.ResponseWriter, r *http.Request) {
	rt.reqTopK.Add(1)
	if !rt.checkMethod(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	eng, err := engineParam(r)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.countEngine(eng)
	q, err := intParam(r, "q", 0, true)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, err := intParam(r, "k", 10, false)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if k < 1 {
		rt.writeError(w, http.StatusBadRequest, "query: top-k size %d < 1", k)
		return
	}
	if q < 0 || q >= rt.n {
		rt.writeError(w, http.StatusBadRequest, "query: vertex %d out of range [0,%d)", q, rt.n)
		return
	}
	rerank := boolParam(r, "rerank")
	if eng == engineLinearized && rerank {
		rt.writeError(w, http.StatusBadRequest, "\"rerank\" is not valid with engine=linearized (exact scores need no rerank)")
		return
	}

	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if eng == engineLinearized {
		rt.serveTopKExact(w, r, q, k)
		return
	}
	key := rtTopKKey(rt.genTagLocked(), q, k, rerank)
	if body, ok := rt.cache.Get(key); ok {
		writeJSONBytes(w, body)
		return
	}

	rows := [][]float64{make([]float64, rt.n)}
	shardDegraded, err := rt.scatterScores(r.Context(), []int{q}, rows)
	if err != nil {
		rt.writeQueryError(w, err, http.StatusBadRequest)
		return
	}

	useRerank := rerank && !shardDegraded
	pool := query.RerankPool(rt.n, k, 0)
	budgetDegraded := useRerank && rt.shouldDegrade(r.Context(), pool)
	if budgetDegraded {
		useRerank = false
	}
	degraded := shardDegraded || budgetDegraded
	kEff := k
	if kEff > rt.n-1 {
		kEff = rt.n - 1
	}
	t1 := time.Now()
	results, err := query.RankScores(r.Context(), rt.g, rt.c, rt.horizon, rows[0], q, kEff, &query.TopKOptions{Rerank: useRerank})
	if err != nil {
		rt.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	if useRerank {
		rt.observeRerank(time.Since(t1), pool)
	}

	body, err := rt.topKBody(q, k, useRerank, degraded, results)
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	if degraded {
		rt.degradedTotal.Add(1)
		w.Header().Set("X-Simrank-Degraded", "true")
	} else {
		rt.cache.Put(key, body)
	}
	writeJSONBytes(w, body)
}

// handleEdges serves POST /v1/edges at the router: validate and apply the
// batch to the router's own graph, then broadcast it to every backend.
// Edits are idempotent at the graph layer, so when the broadcast reaches
// only part of the fleet the client simply retries the same batch — the
// shards that already applied it answer with no-op stats and an unchanged
// generation, the rest catch up, and the fleet converges. Until then the
// router's recorded generations disagree with the stale shards, which
// marks every touched answer degraded and uncacheable (scatterScores'
// generation echo check) rather than wrong.
func (rt *Router) handleEdges(w http.ResponseWriter, r *http.Request) {
	rt.reqEdges.Add(1)
	if !rt.checkMethod(w, r, http.MethodPost) {
		return
	}
	var req edgesRequest
	if !rt.decodeJSONBody(w, r, &req) {
		return
	}
	edits, errMsg := parseEdits(req.Edits)
	if errMsg != "" {
		rt.writeError(w, http.StatusBadRequest, "%s", errMsg)
		return
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	u0 := time.Now()
	// Apply locally first: this validates the batch once (an out-of-range
	// edit is rejected here with the single-node error text, before any
	// backend sees it) and keeps the router's graph — the rerank oracle —
	// in lockstep with the fleet.
	g2, sum, err := rt.g.ApplyEdits(edits)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// realChange mirrors the per-shard no-op rule: a batch that dirties no
	// vertex keeps every shard's generation (and every cached response).
	realChange := len(sum.DirtyIn) > 0 || len(sum.DirtyOut) > 0
	var (
		firstResp     *edgesResponse
		walksRepaired int
		failures      []string
	)
	for i, base := range rt.backends {
		var resp edgesResponse
		if err := rt.postShard(r.Context(), base, "/v1/edges", req, &resp); err != nil {
			rt.shardErrors.Add(1)
			failures = append(failures, fmt.Sprintf("%s: %v", base, err))
			// Record the generation this shard WILL reach once the batch
			// lands (generation counters advance identically for identical
			// batch streams). Until a retry converges it, the shard's
			// echoed generation trails the recorded one, so every answer
			// touching its range is marked degraded and kept out of the
			// cache instead of served as current.
			if realChange {
				rt.gens[i]++
			}
			continue
		}
		if firstResp == nil {
			firstResp = &resp
		}
		walksRepaired += resp.WalksRepaired
		rt.gens[i] = resp.Generation
	}
	rt.g = g2
	if realChange {
		// Every cached merge embeds the old generation vector; none can be
		// served again.
		rt.cache.Clear()
	}
	updateMicros := time.Since(u0).Microseconds()
	rt.updatesTotal.Add(1)
	rt.updateMicros.Add(updateMicros)

	if len(failures) > 0 {
		rt.writeError(w, http.StatusBadGateway,
			"edits applied to %d of %d shards (%s); retry the same batch to converge",
			len(rt.backends)-len(failures), len(rt.backends), strings.Join(failures, "; "))
		return
	}
	body, err := rt.marshalBody(edgesResponse{
		Added:         sum.Added,
		Removed:       sum.Removed,
		DirtyVertices: len(sum.DirtyIn),
		WalksRepaired: walksRepaired,
		Generation:    firstResp.Generation,
		Edges:         rt.g.NumEdges(),
		UpdateMicros:  updateMicros,
	})
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	writeJSONBytes(w, body)
}

// routerHealthzResponse is the router-mode /healthz body.
type routerHealthzResponse struct {
	Status      string   `json:"status"`
	Vertices    int      `json:"vertices"`
	Walks       int      `json:"walks"`
	Horizon     int      `json:"horizon"`
	C           float64  `json:"c"`
	Shards      int      `json:"shards"`
	Generations []uint64 `json:"generations"`
	UptimeSecs  float64  `json:"uptime_seconds"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	gens := append([]uint64(nil), rt.gens...)
	rt.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(routerHealthzResponse{
		Status:      "ok",
		Vertices:    rt.n,
		Walks:       rt.walks,
		Horizon:     rt.horizon,
		C:           rt.c,
		Shards:      len(rt.backends),
		Generations: gens,
		UptimeSecs:  time.Since(rt.started).Seconds(),
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := rt.cache.Stats()
	rt.mu.RLock()
	gens := append([]uint64(nil), rt.gens...)
	rt.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	buildInfoMetric(w, "router")
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"single_source\"} %d\n", rt.reqSingleSource.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"topk\"} %d\n", rt.reqTopK.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"edges\"} %d\n", rt.reqEdges.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"batch\"} %d\n", rt.reqBatch.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"join\"} %d\n", rt.reqJoin.Load())
	fmt.Fprintf(w, "simrankd_batch_items_total %d\n", rt.batchItems.Load())
	fmt.Fprintf(w, "simrankd_batch_item_errors_total %d\n", rt.batchItemErrors.Load())
	fmt.Fprintf(w, "simrankd_request_errors_total %d\n", rt.reqErrors.Load())
	fmt.Fprintf(w, "simrankd_requests_shed_total %d\n", rt.shedTotal.Load())
	fmt.Fprintf(w, "simrankd_requests_degraded_total %d\n", rt.degradedTotal.Load())
	rt.writeEngineMetrics(w)
	rt.writeCostModelMetrics(w)
	fmt.Fprintf(w, "simrankd_shard_errors_total %d\n", rt.shardErrors.Load())
	fmt.Fprintf(w, "simrankd_inflight_requests %d\n", rt.inflight.Load())
	fmt.Fprintf(w, "simrankd_queued_requests %d\n", rt.queued.Load())
	fmt.Fprintf(w, "simrankd_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "simrankd_cache_misses_total %d\n", misses)
	rt.latency.WriteProm(w, "simrankd_request_latency_seconds")
	fmt.Fprintf(w, "simrankd_updates_total %d\n", rt.updatesTotal.Load())
	fmt.Fprintf(w, "simrankd_update_latency_micros_total %d\n", rt.updateMicros.Load())
	for i, g := range gens {
		fmt.Fprintf(w, "simrankd_shard_generation{shard=\"%d\"} %d\n", i, g)
	}
	fmt.Fprintf(w, "simrankd_index_vertices %d\n", rt.n)
}
