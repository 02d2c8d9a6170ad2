package simrankd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"oipsr/internal/par"
	"oipsr/internal/sparserow"
	"oipsr/simrank/query"
)

// Batched serving: POST /v1/batch answers many sources in one request,
// fetching the missed rows a chunk at a time from the row source (one
// shared traversal locally, one scatter over a fleet) and streaming one
// NDJSON line per source; POST /v1/join serves the all-pairs top-k
// similarity join.
//
// Batch lines are byte-identical to the corresponding single-endpoint
// responses and share their cache entries (same generation-aware keys), so
// a batch warms the cache for /v1/topk and /v1/single_source and vice
// versa. Items fail independently: an out-of-range source yields an error
// line in its position while the rest of the batch is answered normally.

// maxRequestBody bounds every JSON request body (/v1/batch, /v1/join,
// /v1/edges): ~8 MB is thousands of sources or tens of thousands of edits,
// far beyond a sane online request.
const maxRequestBody = 8 << 20

// maxDenseBatchScores bounds the total score values a dense (no "min")
// single_source batch may produce: dense rows are O(n) each and the whole
// NDJSON response is buffered before streaming, so without this cap one
// modest-looking request on a large graph could hold gigabytes of response.
// 8M float64 scores is 64 MB of rows before encoding. The same figure
// bounds the per-chunk rows of every batch mode, each up to n scores (see
// batchChunk) — there the response stays small, so chunking suffices and
// no request has to be refused.
const maxDenseBatchScores = 8 << 20

// batchChunk returns how many sources one rows call may carry so that even
// rows with a score for every vertex stay within maxDenseBatchScores.
func batchChunk(n int) int {
	chunk := maxDenseBatchScores / max(n, 1)
	return max(chunk, 1)
}

type batchRequest struct {
	// Mode selects the per-source query: "topk" (the default) or
	// "single_source".
	Mode    string `json:"mode"`
	Sources []int  `json:"sources"`
	// K and Rerank apply to topk mode only.
	K      int  `json:"k"`
	Rerank bool `json:"rerank"`
	// Min applies to single_source mode only: present means the sparse,
	// thresholded response form (the only cacheable one).
	Min *float64 `json:"min"`
}

// threshold returns Min and whether it was given.
func (req *batchRequest) threshold() (min float64, sparse bool) {
	if req.Min == nil {
		return 0, false
	}
	return *req.Min, true
}

// batchItemError is the NDJSON line of a failed batch item.
type batchItemError struct {
	Source int    `json:"source"`
	Error  string `json:"error"`
}

// batchTerminal is the final NDJSON line of a stream cut short: once the
// 200 status and earlier lines are on the wire, a mid-stream cancellation
// (graceful-shutdown drain expiry, deadline, client gone) can only be
// reported in-band. Clients distinguish it from item lines by the
// "truncated" field.
type batchTerminal struct {
	Error     string `json:"error"`
	Truncated bool   `json:"truncated"`
}

// decodeJSONBody decodes a bounded, strict JSON request body, translating
// the oversize error. Returns false after answering the request.
func (sv *serving) decodeJSONBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			sv.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxRequestBody)
			return false
		}
		sv.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// handleBatch serves POST /v1/batch: one NDJSON response line per source,
// in request order. Request-level problems (malformed JSON, unknown mode,
// bad k, too many sources) fail the whole request with a JSON error;
// per-source problems (an out-of-range id) fail only their own line.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.reqBatch.Add(1)
	if !s.checkMethod(w, r, http.MethodPost) {
		return
	}
	if !s.requireWalkEngine(w, r) {
		return
	}
	var req batchRequest
	if !s.decodeJSONBody(w, r, &req) {
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "topk"
	}
	switch mode {
	case "topk":
		if req.Min != nil {
			s.writeError(w, http.StatusBadRequest, "\"min\" is only valid in single_source mode")
			return
		}
		if req.K == 0 {
			req.K = 10
		}
		if req.K < 1 {
			s.writeError(w, http.StatusBadRequest, "top-k size %d < 1", req.K)
			return
		}
	case "single_source":
		if req.K != 0 || req.Rerank {
			s.writeError(w, http.StatusBadRequest, "\"k\" and \"rerank\" are only valid in topk mode")
			return
		}
	default:
		s.writeError(w, http.StatusBadRequest, "unknown mode %q (want \"topk\" or \"single_source\")", mode)
		return
	}
	if len(req.Sources) > s.maxBatch {
		s.writeError(w, http.StatusBadRequest, "batch of %d sources exceeds the %d limit", len(req.Sources), s.maxBatch)
		return
	}
	if mode == "single_source" && req.Min == nil && int64(len(req.Sources))*int64(s.n) > maxDenseBatchScores {
		s.writeError(w, http.StatusBadRequest,
			"dense batch of %d sources on %d vertices exceeds %d total scores; pass \"min\" or split the batch",
			len(req.Sources), s.n, maxDenseBatchScores)
		return
	}
	s.batchItems.Add(int64(len(req.Sources)))

	// Compute every line under the read lock, then release it before
	// streaming: a slow client must not block /v1/edges.
	lines, itemErrors, degraded, err := s.computeBatchLines(r.Context(), &req, mode)
	if err != nil {
		// The error sources are the context (deadline, drain), a rerank
		// without a graph, and encoding; writeQueryError maps the first, 500
		// covers the rest.
		s.writeQueryError(w, err, http.StatusInternalServerError)
		return
	}
	s.batchItemErrors.Add(itemErrors)
	if degraded {
		s.degradedTotal.Add(1)
		w.Header().Set("X-Simrank-Degraded", "true")
	}

	s.streamNDJSON(w, r, lines)
}

// computeBatchLines resolves a validated batch request into one response
// line per source: per-item validation, cache lookups, one shared-traversal
// (or one scatter) per chunk for the misses, and cache fills. It holds the
// read lock for the whole computation so every line reflects one
// generation. degraded reports that at least one chunk was not what was
// asked for: raw estimates because the remaining deadline could not afford
// its exact rerank, or rows missing a vertex range.
func (s *Server) computeBatchLines(ctx context.Context, req *batchRequest, mode string) (lines [][]byte, itemErrors int64, degraded bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()

	tag := s.src.genTag()
	minVal, sparse := req.threshold()
	// The key of an item's line, shared with the single endpoints; "" for
	// the dense single_source form, which is O(n) bytes and stays out of
	// the cache there too.
	keyOf := func(q int) string {
		switch {
		case mode == "topk":
			return topKCacheKey(tag, q, req.K, req.Rerank)
		case sparse:
			return ssCacheKey(tag, q, minVal)
		}
		return ""
	}

	lines = make([][]byte, len(req.Sources))
	// Misses are deduplicated per source id: the per-item parameters are
	// shared batch-wide, so duplicate sources are computed (and cached)
	// once and their lines reused.
	missSlot := make(map[int]int)
	var miss []int
	for i, q := range req.Sources {
		if q < 0 || q >= s.n {
			line, merr := s.marshalBody(batchItemError{Source: q, Error: fmt.Sprintf("query: vertex %d out of range [0,%d)", q, s.n)})
			if merr != nil {
				return nil, 0, false, merr
			}
			lines[i] = line
			itemErrors++
			continue
		}
		if key := keyOf(q); key != "" {
			if body, ok := s.cache.Get(key); ok {
				lines[i] = body
				continue
			}
		}
		if _, ok := missSlot[q]; !ok {
			missSlot[q] = len(miss)
			miss = append(miss, q)
		}
	}
	if len(miss) == 0 {
		return lines, itemErrors, false, nil
	}

	// Misses are fetched in chunks: a row may hold a score for each of the
	// n vertices, so an unchunked batch on a large graph could pin
	// len(miss)*n*8 bytes at once. Each chunk's rows are released before the next starts;
	// per-source results are unaffected (every row is independent of which
	// batch it was computed in).
	bodies := make([][]byte, len(miss))
	chunk := batchChunk(s.n)
	for lo := 0; lo < len(miss); lo += chunk {
		hi := min(lo+chunk, len(miss))
		chunkDegraded, err := s.chunkBodies(ctx, req, mode, miss[lo:hi], bodies[lo:hi])
		if err != nil {
			return nil, 0, false, err
		}
		for j, q := range miss[lo:hi] {
			if key := keyOf(q); key != "" && !chunkDegraded {
				s.cache.Put(key, bodies[lo+j])
			}
		}
		degraded = degraded || chunkDegraded
	}
	for i, q := range req.Sources {
		if lines[i] == nil {
			lines[i] = bodies[missSlot[q]]
		}
	}
	return lines, itemErrors, degraded, nil
}

// chunkBodies fetches the rows of one chunk of missed sources and encodes
// each source's response line into bodies. The rows go back to their pool
// on return: a body holds copies, never row memory.
func (s *Server) chunkBodies(ctx context.Context, req *batchRequest, mode string, sources []int, bodies [][]byte) (degraded bool, err error) {
	rows, degraded, err := s.src.rows(ctx, sources)
	if err != nil {
		return false, err
	}
	defer sparserow.Release(rows...)
	if mode != "topk" {
		minVal, sparse := req.threshold()
		for j, q := range sources {
			if bodies[j], err = s.walkSingleSourceBody(q, rows[j], sparse, minVal, degraded); err != nil {
				return false, err
			}
		}
		return degraded, nil
	}
	// The degrade decision is per chunk, by the rules of /v1/topk: rows
	// missing a range disable the rerank outright, and the budget check sees
	// the whole chunk's candidate volume against the remaining deadline — so
	// a batch that starts exact can finish degraded as the budget drains,
	// each line honestly marked.
	useRerank := req.Rerank && !degraded
	pool := query.RerankPool(s.n, req.K, 0) * len(sources)
	if useRerank && s.shouldDegrade(ctx, pool) {
		useRerank, degraded = false, true
	}
	t1 := time.Now()
	results, err := s.rankRows(ctx, rows, sources, req.K, useRerank)
	if err != nil {
		return false, err
	}
	if useRerank {
		s.observeRerank(time.Since(t1), pool)
	}
	for j, q := range sources {
		if bodies[j], err = s.topKBody(q, req.K, useRerank, degraded, results[j]); err != nil {
			return false, err
		}
	}
	return degraded, nil
}

// rankRows ranks one chunk's rows, in parallel across sources over the
// configured workers: rows are independent and every rerank has its own
// memo, so the results are bit-identical for every worker count.
func (s *Server) rankRows(ctx context.Context, rows []*sparserow.Row, sources []int, k int, rerank bool) ([][]query.Ranked, error) {
	out := make([][]query.Ranked, len(rows))
	parts := par.ResolveMax(s.workers, len(rows))
	errs := make([]error, parts)
	par.Do(parts, func(w int) {
		lo, hi := par.Range(len(rows), parts, w)
		for i := lo; i < hi && errs[w] == nil; i++ {
			out[i], errs[w] = s.rank(ctx, rows[i], sources[i], k, rerank)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

type joinRequest struct {
	K             int     `json:"k"`
	Threshold     float64 `json:"threshold"`
	MaxCandidates int     `json:"max_candidates"`
}

type joinResponse struct {
	K         int              `json:"k"`
	Threshold float64          `json:"threshold"`
	Pairs     []query.JoinPair `json:"pairs"`
	// Degraded marks a fleet-merged join missing at least one backend's
	// candidates or scores. A local index never sets it.
	Degraded bool `json:"degraded,omitempty"`
}

// handleJoin serves POST /v1/join: the top-k similarity join over all
// vertex pairs at a score threshold. Responses are cached under the
// generation-aware key of their canonicalized parameters.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	s.reqJoin.Add(1)
	if !s.checkMethod(w, r, http.MethodPost) {
		return
	}
	if !s.requireWalkEngine(w, r) {
		return
	}
	var req joinRequest
	if !s.decodeJSONBody(w, r, &req) {
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	maxCand := req.MaxCandidates
	if maxCand <= 0 || maxCand > s.joinMaxCand {
		maxCand = s.joinMaxCand
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	key := joinCacheKey(s.src.genTag(), req.K, req.Threshold, maxCand)
	if s.cached(w, key) {
		return
	}
	pairs, degraded, err := s.src.join(r.Context(), req.K, req.Threshold, maxCand)
	if err != nil {
		// A too-dense join is the client's to fix (raise the threshold or
		// lower k); so are out-of-range parameters. Context errors map to
		// 503 as everywhere.
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	body, err := s.marshalBody(joinResponse{K: req.K, Threshold: req.Threshold, Pairs: pairs, Degraded: degraded})
	// The LRU is entry-count bounded, so only modest bodies may enter it —
	// the same reasoning that keeps dense single-source rows out. A join
	// with a large k can legitimately return megabytes; serve it, don't
	// cache it.
	if len(body) > maxCachedJoinBody {
		key = ""
	}
	s.writeBody(w, key, degraded, body, err)
}

// maxCachedJoinBody bounds the join response bodies admitted to the LRU
// (whose capacity counts entries, not bytes). 256 KiB is thousands of
// pairs; anything larger is recomputed per request rather than allowed to
// blow up resident cache memory.
const maxCachedJoinBody = 256 << 10
